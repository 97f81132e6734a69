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

// ensureSystemCatalogsLocked creates the five catalog relations on first use.
func (c *Catalog) ensureSystemCatalogsLocked() {
	if _, ok := c.tables[SysTables]; ok {
		return
	}
	mk := func(name string, cols ...Column) {
		seg := c.segmentLocked("__SYSCAT_" + name)
		t := &Table{ID: c.nextRel, Name: name, Columns: cols, Segment: seg, System: true}
		c.nextRel++
		c.tables[name] = t
		c.byID[t.ID] = t
	}
	mk(SysTables,
		Column{Name: "TNAME", Type: value.KindString},
		Column{Name: "NCARD", Type: value.KindInt},
		Column{Name: "TCARD", Type: value.KindInt},
		Column{Name: "PFRAC", Type: value.KindFloat})
	mk(SysColumns,
		Column{Name: "TNAME", Type: value.KindString},
		Column{Name: "CNAME", Type: value.KindString},
		Column{Name: "COLNO", Type: value.KindInt},
		Column{Name: "COLTYPE", Type: value.KindString})
	mk(SysIndexes,
		Column{Name: "INAME", Type: value.KindString},
		Column{Name: "TNAME", Type: value.KindString},
		Column{Name: "COLNAMES", Type: value.KindString},
		Column{Name: "UNIQUEFLAG", Type: value.KindInt},
		Column{Name: "CLUSTERFLAG", Type: value.KindInt},
		Column{Name: "ICARD", Type: value.KindInt},
		Column{Name: "NINDX", Type: value.KindInt})
	mk(SysColStats,
		Column{Name: "TNAME", Type: value.KindString},
		Column{Name: "CNAME", Type: value.KindString},
		Column{Name: "NDISTINCT", Type: value.KindInt},
		Column{Name: "NULLS", Type: value.KindInt},
		Column{Name: "NROWS", Type: value.KindInt},
		Column{Name: "NBUCKETS", Type: value.KindInt})
	mk(SysHist,
		Column{Name: "TNAME", Type: value.KindString},
		Column{Name: "CNAME", Type: value.KindString},
		Column{Name: "BUCKETNO", Type: value.KindInt},
		Column{Name: "HIKEY", Type: value.KindString},
		Column{Name: "NROWS", Type: value.KindInt},
		Column{Name: "NDISTINCT", Type: value.KindInt})
}

// refreshSystemCatalogsLocked rewrites the catalog relations from current
// metadata and returns the first insert's error. Each lives alone in its
// private segment (CreateTable refuses the reserved names), so every slot of
// it is deleted in place without reading a record (the pages are reused on
// the next refresh cycle's inserts only when space permits; the segments
// stay small in practice).
func (c *Catalog) refreshSystemCatalogsLocked() error {
	c.ensureSystemCatalogsLocked()
	st := c.tables[SysTables]
	sc := c.tables[SysColumns]
	si := c.tables[SysIndexes]
	scs := c.tables[SysColStats]
	sh := c.tables[SysHist]
	for _, t := range []*Table{st, sc, si, scs, sh} {
		for _, pid := range t.Segment.Pages() {
			page := c.disk.Page(pid)
			for s := uint16(0); s < page.NumSlots(); s++ {
				page.Delete(s)
			}
		}
	}
	var err error
	put := func(t *Table, row ...value.Value) {
		if err == nil {
			err = insertFrozen(t, row)
		}
	}
	// Deterministic order: sorted table names.
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := c.tables[n]
		put(st, value.NewString(t.Name), value.NewInt(int64(t.Stats.NCard)),
			value.NewInt(int64(t.Stats.TCard)), value.NewFloat(t.Stats.P))
		for i, col := range t.Columns {
			put(sc, value.NewString(t.Name), value.NewString(col.Name),
				value.NewInt(int64(i)), value.NewString(col.Type.String()))
		}
		for _, ix := range t.Indexes {
			put(si, value.NewString(ix.Name), value.NewString(t.Name),
				value.NewString(strings.Join(ix.ColumnNames(), ",")),
				boolInt(ix.Unique), boolInt(ix.Clustered),
				value.NewInt(int64(ix.Stats.ICard)), value.NewInt(int64(ix.Stats.NIndx)))
		}
		for ci, cs := range t.ColStats {
			if !cs.HasStats {
				continue
			}
			cname := value.NewString(t.Columns[ci].Name)
			nrows, nbuckets := int64(0), 0
			if cs.Hist != nil {
				nrows, nbuckets = cs.Hist.NRows, len(cs.Hist.Buckets)
				for bi, b := range cs.Hist.Buckets {
					put(sh, value.NewString(t.Name), cname, value.NewInt(int64(bi)),
						value.NewString(b.Hi.String()), value.NewInt(b.Rows), value.NewInt(b.Distinct))
				}
			}
			put(scs, value.NewString(t.Name), cname, value.NewInt(int64(cs.NDistinct)),
				value.NewInt(int64(cs.NullCount)), value.NewInt(nrows), value.NewInt(int64(nbuckets)))
		}
	}
	return err
}

// insertFrozen stores row in system catalog t. Catalog rows are frozen:
// created by XID 0 ("always committed"), so they are visible to every
// snapshot without registry traffic.
func insertFrozen(t *Table, row value.Row) error {
	rec := storage.EncodeVersionedRow(storage.VersionHeader{Xmin: storage.FrozenXID, Prev: storage.NoPrevTID}, row)
	// Validated like rss.Insert's records: scans decode only what they
	// return.
	if err := storage.CheckEncodedRow(rec[storage.VersionHeaderSize:]); err != nil {
		return err
	}
	_, err := t.Segment.Insert(t.ID, rec)
	return err
}

func boolInt(b bool) value.Value {
	if b {
		return value.NewInt(1)
	}
	return value.NewInt(0)
}
