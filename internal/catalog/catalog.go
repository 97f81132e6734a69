// Package catalog maintains the System R catalogs: relation and index
// definitions plus the statistics Section 4 lists —
//
//	NCARD(T)  cardinality of relation T
//	TCARD(T)  pages holding tuples of T
//	P(T)      TCARD(T) / non-empty pages of T's segment
//	ICARD(I)  distinct keys in index I
//	NINDX(I)  pages of index I
//
// and, per index, the minimum and maximum key value of the leading column,
// which the optimizer's linear-interpolation selectivity needs.
//
// As in the paper, statistics are not maintained on every INSERT/DELETE
// (that would serialize catalog access); they are refreshed by the
// UPDATE STATISTICS command, so they can be stale relative to the data.
//
// The catalog reads no heap page itself. UPDATE STATISTICS and CREATE INDEX
// take their rows from a RowSource the caller supplies — in the engine an
// RSS segment scan under the statement's snapshot, as the paper's RSS is
// the one way to reach stored relations — and build the statistics and the
// index from those rows.
package catalog

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"systemr/internal/btree"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// Column describes one column of a relation.
type Column struct {
	Name string
	Type value.Kind
}

// RelStats are the per-relation statistics of Section 4.
type RelStats struct {
	// HasStats is false until UPDATE STATISTICS runs; the paper: "a lack of
	// statistics implies that the relation is small, so an arbitrary factor
	// is chosen".
	HasStats bool
	NCard    int     // relation cardinality
	TCard    int     // data pages holding tuples of the relation
	P        float64 // fraction of segment's non-empty pages holding the relation
}

// Default statistics assumed for relations that have never been analyzed.
const (
	DefaultNCard = 100
	DefaultTCard = 10
	DefaultP     = 1.0
)

// EffNCard returns NCARD or its small-relation default.
func (s RelStats) EffNCard() float64 {
	if !s.HasStats {
		return DefaultNCard
	}
	return float64(s.NCard)
}

// EffTCard returns TCARD or its default.
func (s RelStats) EffTCard() float64 {
	if !s.HasStats {
		return DefaultTCard
	}
	return float64(s.TCard)
}

// EffP returns P or its default; never zero so TCARD/P stays finite.
func (s RelStats) EffP() float64 {
	if !s.HasStats || s.P <= 0 {
		return DefaultP
	}
	return s.P
}

// IndexStats are the per-index statistics of Section 4.
type IndexStats struct {
	HasStats  bool
	ICard     int // distinct full keys
	ICardLead int // distinct values of the leading key column
	NIndx     int // index pages
	// Low/High are the smallest and largest values of the leading key column
	// (valid only for arithmetic columns' interpolation).
	Low, High value.Value
}

// DefaultICard is assumed for unanalyzed indexes.
const DefaultICard = 10

// EffICard returns ICARD or its default, never below 1. An analyzed-but-
// empty index (post-DML statistics can legitimately report ICARD = 0) floors
// at 1 rather than falling back to the unanalyzed default, so 1/ICARD
// selectivity estimates stay finite and in [0, 1].
func (s IndexStats) EffICard() float64 {
	if !s.HasStats {
		return DefaultICard
	}
	if s.ICard < 1 {
		return 1
	}
	return float64(s.ICard)
}

// EffICardLead returns the leading-column distinct count or its default,
// floored at 1 for analyzed empty indexes (see EffICard).
func (s IndexStats) EffICardLead() float64 {
	if !s.HasStats {
		return DefaultICard
	}
	if s.ICardLead < 1 {
		return 1
	}
	return float64(s.ICardLead)
}

// EffNIndx returns NINDX or its default.
func (s IndexStats) EffNIndx() float64 {
	if !s.HasStats || s.NIndx < 1 {
		return 1
	}
	return float64(s.NIndx)
}

// Table is a stored relation: schema plus its physical storage handle.
type Table struct {
	ID      storage.RelID
	Name    string
	Columns []Column
	Segment *storage.Segment
	Indexes []*Index
	Stats   RelStats
	// ColStats holds per-column histogram statistics, parallel to Columns;
	// empty until UPDATE STATISTICS runs. Like Stats it is replaced
	// wholesale under the exclusive catalog lock, never mutated in place.
	ColStats []ColStats
	// System marks the read-only system catalog relations.
	System bool
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ClusteredIndex returns the table's clustered index, or nil. System R
// allows at most one.
func (t *Table) ClusteredIndex() *Index {
	for _, ix := range t.Indexes {
		if ix.Clustered {
			return ix
		}
	}
	return nil
}

// Index is a B-tree access path on one or more columns of a table.
type Index struct {
	Name      string
	Table     *Table
	ColIdxs   []int // ordinals of the key columns, major first
	Unique    bool
	Clustered bool
	Tree      *btree.BTree
	Stats     IndexStats
}

// KeyFor extracts the index key from a full row.
func (ix *Index) KeyFor(row value.Row) value.Row {
	return ix.AppendKey(make(value.Row, 0, len(ix.ColIdxs)), row)
}

// AppendKey appends the index key of a full row to dst.
func (ix *Index) AppendKey(dst, row value.Row) value.Row {
	for _, c := range ix.ColIdxs {
		dst = append(dst, row[c])
	}
	return dst
}

// ColumnNames returns the key column names, major first.
func (ix *Index) ColumnNames() []string {
	names := make([]string, len(ix.ColIdxs))
	for i, c := range ix.ColIdxs {
		names[i] = ix.Table.Columns[c].Name
	}
	return names
}

// Catalog is the set of all relations and indexes, plus segment bookkeeping.
type Catalog struct {
	mu       sync.RWMutex
	disk     *storage.Disk
	tables   map[string]*Table
	byID     map[storage.RelID]*Table
	segments map[string]*storage.Segment
	nextRel  storage.RelID
	nextSeg  int
	// version is the catalog's monotonically increasing version/stats epoch.
	// It bumps on every dependency change a compiled plan could embed —
	// CREATE/DROP TABLE, CREATE/DROP INDEX, and statistics refresh — so a
	// plan compiled at version V is valid exactly while Version() == V
	// (System R's access-module invalidation). Lazy system-catalog
	// materialization does not bump: it only adds read-side tables no
	// existing plan can reference.
	version atomic.Uint64
}

// New creates an empty catalog over disk.
func New(disk *storage.Disk) *Catalog {
	c := &Catalog{
		disk:     disk,
		tables:   make(map[string]*Table),
		byID:     make(map[storage.RelID]*Table),
		segments: make(map[string]*storage.Segment),
		nextRel:  1,
	}
	c.version.Store(1)
	return c
}

// Version returns the current catalog version/stats epoch. Reading it while
// holding the engine's shared catalog lock pins it: DDL and UPDATE
// STATISTICS run under the exclusive catalog lock, so the version cannot
// move under an executing statement.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// bump advances the catalog version after a dependency change.
func (c *Catalog) bump() { c.version.Add(1) }

// Disk exposes the underlying simulated disk.
func (c *Catalog) Disk() *storage.Disk { return c.disk }

// CreateTable registers a new relation. segment names the segment to store
// it in; "" allocates a private segment. Sharing a segment between relations
// reproduces the paper's P(T) < 1 scenarios. Names beginning with "__" are
// the engine's own (private segments and the system catalogs', which the
// catalog refresh clears slot by slot), so a caller cannot name one.
func (c *Catalog) CreateTable(name string, cols []Column, segment string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToUpper(name)
	if IsSystemTable(key) {
		return nil, fmt.Errorf("catalog: %s is a reserved system catalog name", name)
	}
	if _, exists := c.tables[key]; exists {
		return nil, fmt.Errorf("catalog: table %s already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %s must have at least one column", name)
	}
	if strings.HasPrefix(segment, "__") {
		return nil, fmt.Errorf("catalog: segment name %s is reserved", segment)
	}
	seen := map[string]bool{}
	for _, col := range cols {
		up := strings.ToUpper(col.Name)
		if seen[up] {
			return nil, fmt.Errorf("catalog: duplicate column %s in table %s", col.Name, name)
		}
		seen[up] = true
	}
	seg := c.segmentLocked(segment)
	t := &Table{
		ID:      c.nextRel,
		Name:    key,
		Columns: cols,
		Segment: seg,
	}
	c.nextRel++
	c.tables[key] = t
	c.byID[t.ID] = t
	c.bump()
	return t, nil
}

func (c *Catalog) segmentLocked(name string) *storage.Segment {
	if name == "" {
		name = fmt.Sprintf("__private_%d", c.nextSeg)
	}
	name = strings.ToUpper(name)
	if seg, ok := c.segments[name]; ok {
		return seg
	}
	seg := storage.NewSegment(c.nextSeg, c.disk)
	c.nextSeg++
	c.segments[name] = seg
	return seg
}

// DropTable removes a relation and its indexes from the catalog. The
// segment pages are not reclaimed (System R segments were recycled by
// utilities, not by DROP).
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToUpper(name)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	if t.System {
		return fmt.Errorf("catalog: cannot drop system catalog %s", name)
	}
	delete(c.tables, key)
	delete(c.byID, t.ID)
	c.bump()
	return nil
}

// Table looks a relation up by name (case-insensitive). The system catalogs
// (SYSTABLES, SYSCOLUMNS, SYSINDEXES) materialize on first reference.
func (c *Catalog) Table(name string) (*Table, bool) {
	key := strings.ToUpper(name)
	if IsSystemTable(key) {
		c.mu.Lock()
		c.ensureSystemCatalogsLocked()
		c.mu.Unlock()
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key]
	return t, ok
}

// Tables returns all relations (unordered).
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	return out
}

// RowSource hands visit every row of t the reading statement can see, with
// its TID, in physical order, and returns visit's first error or its own.
// The row is lent: it is valid only during the call, so visit copies what
// it keeps. The engine supplies an RSS segment scan under the statement's
// snapshot; package tests supply a reference heap walk.
type RowSource func(t *Table, visit func(row value.Row, tid storage.TID) error) error

// CreateIndex builds a B-tree index on the given columns of a table and
// bulk-loads it from the rows src reads. A table may have any number of
// indexes (including zero), but at most one clustered index. The index holds
// the visible versions only: the caller's exclusive catalog lock has waited
// out every transaction, so no snapshot can ask for a version the scan did
// not see, and vacuum's removal of a delete-marked version ignores the entry
// it never got. A unique index fails on two equal keys among them. src runs
// without the catalog's mutex held; the caller's lock keeps other catalog
// changes out meanwhile.
func (c *Catalog) CreateIndex(name, table string, columns []string, unique, clustered bool, src RowSource) (*Index, error) {
	c.mu.RLock()
	t, ok := c.tables[strings.ToUpper(table)]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("catalog: table %s does not exist", table)
	}
	if t.System {
		return nil, fmt.Errorf("catalog: cannot index system catalog %s", table)
	}
	colIdxs := make([]int, len(columns))
	for i, cn := range columns {
		ci := t.ColumnIndex(cn)
		if ci < 0 {
			return nil, fmt.Errorf("catalog: column %s does not exist in table %s", cn, table)
		}
		colIdxs[i] = ci
	}
	ix := &Index{
		Name:      strings.ToUpper(name),
		Table:     t,
		ColIdxs:   colIdxs,
		Unique:    unique,
		Clustered: clustered,
	}
	// One entry per visible row, its key carved from one array. Both are
	// sized by the relation's stored records, which bound its visible rows.
	n := t.Segment.RecordsOf(t.ID)
	entries := make([]btree.Entry, 0, n)
	keys := make([]value.Value, 0, n*len(colIdxs))
	err := src(t, func(row value.Row, tid storage.TID) error {
		start := len(keys)
		keys = ix.AppendKey(keys, row)
		entries = append(entries, btree.Entry{Key: keys[start:len(keys):len(keys)], TID: tid})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("catalog: building index %s: %w", name, err)
	}
	btree.SortEntries(entries) // BulkLoad's order, so it does not sort again
	if unique {
		for i := 1; i < len(entries); i++ {
			if value.CompareKey(entries[i-1].Key, entries[i].Key) == 0 {
				return nil, fmt.Errorf("catalog: duplicate key %v violates unique index %s", entries[i].Key, name)
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, other := range t.Indexes {
		if other.Name == ix.Name {
			return nil, fmt.Errorf("catalog: index %s already exists on %s", name, table)
		}
	}
	if clustered && t.ClusteredIndex() != nil {
		return nil, fmt.Errorf("catalog: table %s already has a clustered index", table)
	}
	// Bulk-load the tree bottom-up (sorted, packed pages — System R's index
	// build). The tree takes the entries over.
	ix.Tree = btree.BulkLoad(c.disk, btree.Config{}, entries)
	t.Indexes = append(t.Indexes, ix)
	c.bump()
	return ix, nil
}

// DropIndex removes an index (found by name on any table) from the catalog
// and bumps the version, invalidating every plan compiled against it. The
// index pages are not reclaimed, matching DropTable.
func (c *Catalog) DropIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	upper := strings.ToUpper(name)
	for _, t := range c.tables {
		for i, ix := range t.Indexes {
			if ix.Name != upper {
				continue
			}
			// Build a fresh slice: executing statements traverse the old one
			// (they cannot run concurrently with DDL — the exclusive catalog
			// lock excludes them — but cached plans may still hold it).
			keep := make([]*Index, 0, len(t.Indexes)-1)
			keep = append(keep, t.Indexes[:i]...)
			keep = append(keep, t.Indexes[i+1:]...)
			t.Indexes = keep
			c.bump()
			return nil
		}
	}
	return fmt.Errorf("catalog: index %s does not exist", name)
}

// Index finds an index by name on any table.
func (c *Catalog) Index(name string) (*Index, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	upper := strings.ToUpper(name)
	for _, t := range c.tables {
		for _, ix := range t.Indexes {
			if ix.Name == upper {
				return ix, true
			}
		}
	}
	return nil, false
}

// UpdateStatistics recomputes every statistic of Section 4 — the UPDATE
// STATISTICS command of the paper — for the named table, or for every table
// when table is "", from the rows src reads, then bumps the catalog version
// and rewrites the queryable system catalogs to publish them. (The SYSTABLES
// rows describing the system catalogs themselves reflect the previous
// refresh cycle, a System R-style staleness.) Nothing changes unless every
// table is read in full. src runs without the catalog's mutex held; the
// caller's lock keeps other catalog changes out meanwhile.
func (c *Catalog) UpdateStatistics(table string, src RowSource) error {
	var tables []*Table
	c.mu.RLock()
	for _, t := range c.tables {
		if table == "" || t.Name == strings.ToUpper(table) {
			tables = append(tables, t)
		}
	}
	c.mu.RUnlock()
	if len(tables) == 0 && table != "" {
		return fmt.Errorf("catalog: table %s does not exist", table)
	}
	// One order, so the reads leave the buffer pool the same each time.
	slices.SortFunc(tables, func(a, b *Table) int { return strings.Compare(a.Name, b.Name) })
	rels, cols := make([]RelStats, len(tables)), make([][]ColStats, len(tables))
	for i, t := range tables {
		// NCARD counts the visible rows: delete-marked versions awaiting
		// vacuum occupy pages (they still shape TCARD) but are not tuples
		// the optimizer's cardinality model should see. The same pass
		// collects every column's values for the equi-depth histograms,
		// into arrays carved from one, sized by the relation's stored
		// records, which bound its visible rows.
		ncard, n := 0, t.Segment.RecordsOf(t.ID)
		all := make([]value.Value, n*len(t.Columns))
		colVals := make([][]value.Value, len(t.Columns))
		for ci := range colVals {
			colVals[ci] = all[ci*n : ci*n : (ci+1)*n]
		}
		err := src(t, func(row value.Row, _ storage.TID) error {
			ncard++
			for ci := range colVals {
				colVals[ci] = append(colVals[ci], row[ci])
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("catalog: statistics of %s: %w", t.Name, err)
		}
		tcard := t.Segment.PagesHolding(t.ID)
		nonEmpty := t.Segment.NonEmptyPages()
		p := 1.0
		if nonEmpty > 0 {
			p = float64(tcard) / float64(nonEmpty)
		}
		rels[i] = RelStats{HasStats: true, NCard: ncard, TCard: tcard, P: p}
		cols[i] = make([]ColStats, len(t.Columns))
		for ci, vals := range colVals {
			cols[i][ci] = buildColStats(vals, MaxHistBuckets)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, t := range tables {
		t.Stats, t.ColStats = rels[i], cols[i]
		for _, ix := range t.Indexes {
			icard, icardLead, nindx, low, high := ix.Tree.Stats()
			ix.Stats = IndexStats{HasStats: true, ICard: icard, ICardLead: icardLead, NIndx: nindx, Low: low, High: high}
		}
	}
	// A statistics refresh changes what the optimizer would choose: advance
	// the epoch so plans costed against the old statistics recompile.
	c.bump()
	// Publish the refreshed statistics through the queryable catalogs. They
	// are advisory: a refresh that fails (full pages) leaves stale rows.
	_ = c.refreshSystemCatalogsLocked()
	return nil
}
