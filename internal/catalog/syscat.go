package catalog

// System catalogs as relations. System R stored its catalogs as ordinary
// tables that could be queried through SQL ("the OPTIMIZER ... looks them up
// in the System R catalogs"); we do the same: five read-only relations —
//
//	SYSTABLES   (TNAME, NCARD, TCARD, PFRAC)
//	SYSCOLUMNS  (TNAME, CNAME, COLNO, COLTYPE)
//	SYSINDEXES  (INAME, TNAME, COLNAMES, UNIQUEFLAG, CLUSTERFLAG, ICARD, NINDX)
//	SYSCOLSTATS (TNAME, CNAME, NDISTINCT, NULLS, NROWS, NBUCKETS)
//	SYSHIST     (TNAME, CNAME, BUCKETNO, HIKEY, NROWS, NDISTINCT)
//
// rebuilt by UPDATE STATISTICS (the same command that refreshes the
// statistics they publish). SYSCOLSTATS and SYSHIST publish the per-column
// histogram statistics (histogram.go), one SYSHIST row per bucket. They live
// in private segments and are themselves listed in SYSTABLES, as in System R.

import (
	"sort"
	"strings"

	"systemr/internal/storage"
	"systemr/internal/value"
)

// System catalog table names.
const (
	SysTables   = "SYSTABLES"
	SysColumns  = "SYSCOLUMNS"
	SysIndexes  = "SYSINDEXES"
	SysColStats = "SYSCOLSTATS"
	SysHist     = "SYSHIST"
)

// IsSystemTable reports whether name is one of the system catalogs.
func IsSystemTable(name string) bool {
	switch strings.ToUpper(name) {
	case SysTables, SysColumns, SysIndexes, SysColStats, SysHist:
		return true
	}
	return false
}

// ensureSystemCatalogs creates the three catalog relations on first use.
func (c *Catalog) ensureSystemCatalogsLocked() error {
	if _, ok := c.tables[SysTables]; ok {
		return nil
	}
	mk := func(name string, cols []Column) error {
		seg := c.segmentLocked("__SYSCAT_" + name)
		t := &Table{ID: c.nextRel, Name: name, Columns: cols, Segment: seg, System: true}
		c.nextRel++
		c.tables[name] = t
		c.byID[t.ID] = t
		return nil
	}
	if err := mk(SysTables, []Column{
		{Name: "TNAME", Type: value.KindString},
		{Name: "NCARD", Type: value.KindInt},
		{Name: "TCARD", Type: value.KindInt},
		{Name: "PFRAC", Type: value.KindFloat},
	}); err != nil {
		return err
	}
	if err := mk(SysColumns, []Column{
		{Name: "TNAME", Type: value.KindString},
		{Name: "CNAME", Type: value.KindString},
		{Name: "COLNO", Type: value.KindInt},
		{Name: "COLTYPE", Type: value.KindString},
	}); err != nil {
		return err
	}
	if err := mk(SysIndexes, []Column{
		{Name: "INAME", Type: value.KindString},
		{Name: "TNAME", Type: value.KindString},
		{Name: "COLNAMES", Type: value.KindString},
		{Name: "UNIQUEFLAG", Type: value.KindInt},
		{Name: "CLUSTERFLAG", Type: value.KindInt},
		{Name: "ICARD", Type: value.KindInt},
		{Name: "NINDX", Type: value.KindInt},
	}); err != nil {
		return err
	}
	if err := mk(SysColStats, []Column{
		{Name: "TNAME", Type: value.KindString},
		{Name: "CNAME", Type: value.KindString},
		{Name: "NDISTINCT", Type: value.KindInt},
		{Name: "NULLS", Type: value.KindInt},
		{Name: "NROWS", Type: value.KindInt},
		{Name: "NBUCKETS", Type: value.KindInt},
	}); err != nil {
		return err
	}
	return mk(SysHist, []Column{
		{Name: "TNAME", Type: value.KindString},
		{Name: "CNAME", Type: value.KindString},
		{Name: "BUCKETNO", Type: value.KindInt},
		{Name: "HIKEY", Type: value.KindString},
		{Name: "NROWS", Type: value.KindInt},
		{Name: "NDISTINCT", Type: value.KindInt},
	})
}

// refreshSystemCatalogsLocked rewrites the catalog relations from current
// metadata. Old tuples are deleted in place (their pages are reused on the
// next refresh cycle's inserts only when space permits; the segments stay
// small in practice).
func (c *Catalog) refreshSystemCatalogsLocked() error {
	if err := c.ensureSystemCatalogsLocked(); err != nil {
		return err
	}
	clear := func(t *Table) {
		for _, pid := range t.Segment.Pages() {
			page := c.disk.Page(pid)
			for s := uint16(0); s < page.NumSlots(); s++ {
				if _, rel, ok := page.Record(s); ok && rel == t.ID {
					page.Delete(s)
				}
			}
		}
	}
	st := c.tables[SysTables]
	sc := c.tables[SysColumns]
	si := c.tables[SysIndexes]
	scs := c.tables[SysColStats]
	sh := c.tables[SysHist]
	clear(st)
	clear(sc)
	clear(si)
	clear(scs)
	clear(sh)

	// Catalog rows are frozen: created by XID 0 ("always committed"), so
	// they are visible to every snapshot without registry traffic.
	insert := func(t *Table, row value.Row) error {
		rec := storage.EncodeVersionedRow(storage.VersionHeader{Xmin: storage.FrozenXID, Prev: storage.NoPrevTID}, row)
		// Validated like rss.Insert's records: scans decode only what they
		// return.
		if err := storage.CheckEncodedRow(rec[storage.VersionHeaderSize:]); err != nil {
			return err
		}
		_, err := t.Segment.Insert(t.ID, rec)
		return err
	}
	// Deterministic order: sorted table names.
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := c.tables[n]
		if err := insert(st, value.Row{
			value.NewString(t.Name),
			value.NewInt(int64(t.Stats.NCard)),
			value.NewInt(int64(t.Stats.TCard)),
			value.NewFloat(t.Stats.P),
		}); err != nil {
			return err
		}
		for i, col := range t.Columns {
			if err := insert(sc, value.Row{
				value.NewString(t.Name),
				value.NewString(col.Name),
				value.NewInt(int64(i)),
				value.NewString(col.Type.String()),
			}); err != nil {
				return err
			}
		}
		for _, ix := range t.Indexes {
			if err := insert(si, value.Row{
				value.NewString(ix.Name),
				value.NewString(t.Name),
				value.NewString(strings.Join(ix.ColumnNames(), ",")),
				boolInt(ix.Unique),
				boolInt(ix.Clustered),
				value.NewInt(int64(ix.Stats.ICard)),
				value.NewInt(int64(ix.Stats.NIndx)),
			}); err != nil {
				return err
			}
		}
		for ci, cs := range t.ColStats {
			if !cs.HasStats {
				continue
			}
			nrows, nbuckets := int64(0), 0
			if cs.Hist != nil {
				nrows, nbuckets = cs.Hist.NRows, len(cs.Hist.Buckets)
			}
			if err := insert(scs, value.Row{
				value.NewString(t.Name),
				value.NewString(t.Columns[ci].Name),
				value.NewInt(int64(cs.NDistinct)),
				value.NewInt(int64(cs.NullCount)),
				value.NewInt(nrows),
				value.NewInt(int64(nbuckets)),
			}); err != nil {
				return err
			}
			if cs.Hist == nil {
				continue
			}
			for bi, b := range cs.Hist.Buckets {
				if err := insert(sh, value.Row{
					value.NewString(t.Name),
					value.NewString(t.Columns[ci].Name),
					value.NewInt(int64(bi)),
					value.NewString(b.Hi.String()),
					value.NewInt(b.Rows),
					value.NewInt(b.Distinct),
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func boolInt(b bool) value.Value {
	if b {
		return value.NewInt(1)
	}
	return value.NewInt(0)
}
