package systemr_test

// The catalog's two bulk builders frozen as they stood before UPDATE
// STATISTICS filled presized arrays and CREATE INDEX handed BulkLoad keys
// carved from one array: every column's values appended to its own slice
// and sorted with sort.Slice, and every index entry given its own key,
// cloned, sorted and packed leaf by leaf. They share no code with the
// engine's builders, so a rewrite of either that changes one statistic, one
// bucket boundary, or one leaf fails the oracles in statistics_test.go.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"systemr/internal/btree"
	"systemr/internal/catalog"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// refTableStats reads t through src and builds its RelStats and ColStats.
func refTableStats(t *catalog.Table, src catalog.RowSource) (catalog.RelStats, []catalog.ColStats, error) {
	ncard := 0
	colVals := make([][]value.Value, len(t.Columns))
	err := src(t, func(row value.Row, _ storage.TID) error {
		ncard++
		for ci := range colVals {
			colVals[ci] = append(colVals[ci], row[ci])
		}
		return nil
	})
	if err != nil {
		return catalog.RelStats{}, nil, err
	}
	tcard := t.Segment.PagesHolding(t.ID)
	nonEmpty := t.Segment.NonEmptyPages()
	p := 1.0
	if nonEmpty > 0 {
		p = float64(tcard) / float64(nonEmpty)
	}
	cols := make([]catalog.ColStats, len(t.Columns))
	for ci, vals := range colVals {
		cols[ci] = refColStats(vals, catalog.MaxHistBuckets)
	}
	return catalog.RelStats{HasStats: true, NCard: ncard, TCard: tcard, P: p}, cols, nil
}

// refColStats sorts one column's values with sort.Slice and packs them into
// an equi-depth histogram, isolating heavy hitters.
func refColStats(vals []value.Value, maxBuckets int) catalog.ColStats {
	cs := catalog.ColStats{HasStats: true}
	sort.Slice(vals, func(i, j int) bool { return value.Compare(vals[i], vals[j]) < 0 })
	firstNonNull := 0
	for firstNonNull < len(vals) && vals[firstNonNull].IsNull() {
		firstNonNull++
	}
	cs.NullCount = firstNonNull
	vals = vals[firstNonNull:]
	if len(vals) == 0 {
		return cs
	}
	depth := (int64(len(vals)) + int64(maxBuckets) - 1) / int64(maxBuckets)
	if depth < 1 {
		depth = 1
	}
	h := &catalog.Histogram{Lo: vals[0], NRows: int64(len(vals))}
	var cur catalog.Bucket
	flush := func() {
		if cur.Rows > 0 {
			h.Buckets = append(h.Buckets, cur)
			cur = catalog.Bucket{}
		}
	}
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && value.Compare(vals[j], vals[i]) == 0 {
			j++
		}
		group := int64(j - i)
		cs.NDistinct++
		if group >= depth {
			flush()
		}
		cur.Hi = vals[i]
		cur.Rows += group
		cur.Distinct++
		if cur.Rows >= depth {
			flush()
		}
		i = j
	}
	flush()
	cs.Hist = h
	return cs
}

// refTree is the shape a bulk load gives an index: its height, its node
// count (NINDX), and the entries of each leaf in chain order.
type refTree struct {
	height, nodes int
	leaves        [][]btree.Entry
}

// refBulkLoad reads ix's table through src, keys every row, and lays the
// entries out as the default-order bulk load does: sorted by key, then TID,
// exact duplicates collapsed, leaves and then each internal level packed
// 90% full, and a trailing parent left with one child merged into its left
// sibling.
func refBulkLoad(ix *catalog.Index, src catalog.RowSource) (refTree, error) {
	var entries []btree.Entry
	err := src(ix.Table, func(row value.Row, tid storage.TID) error {
		key := make(value.Row, len(ix.ColIdxs))
		for i, c := range ix.ColIdxs {
			key[i] = row[c]
		}
		entries = append(entries, btree.Entry{Key: key, TID: tid})
		return nil
	})
	if err != nil {
		return refTree{}, err
	}
	sorted := slices.Clone(entries)
	sort.Slice(sorted, func(i, j int) bool { return refCompareEntries(sorted[i], sorted[j]) < 0 })
	var dedup []btree.Entry
	for _, e := range sorted {
		if len(dedup) == 0 || refCompareEntries(dedup[len(dedup)-1], e) != 0 {
			dedup = append(dedup, e)
		}
	}
	perNode := int(float64(btree.DefaultOrder) * 0.9)
	tree := refTree{height: 1}
	for off := 0; off < len(dedup) || off == 0; off += perNode {
		tree.leaves = append(tree.leaves, dedup[off:min(off+perNode, len(dedup))])
	}
	tree.nodes = len(tree.leaves)
	for level := len(tree.leaves); level > 1; tree.height++ {
		parents := (level + perNode - 1) / perNode
		if parents > 1 && level%perNode == 1 {
			parents--
		}
		tree.nodes += parents
		level = parents
	}
	return tree, nil
}

// refCompareEntries orders entries by key, then by TID's page and slot.
func refCompareEntries(a, b btree.Entry) int {
	if c := value.CompareKey(a.Key, b.Key); c != 0 {
		return c
	}
	switch {
	case a.TID.Page != b.TID.Page:
		if a.TID.Page < b.TID.Page {
			return -1
		}
		return 1
	case a.TID.Slot < b.TID.Slot:
		return -1
	case a.TID.Slot > b.TID.Slot:
		return 1
	}
	return 0
}

// refIndexStats computes an index's Section 4 statistics from its leaf
// sequence and node count.
func refIndexStats(leaves [][]btree.Entry, nodes int) catalog.IndexStats {
	s := catalog.IndexStats{HasStats: true, NIndx: nodes}
	var prev value.Row
	for _, leaf := range leaves {
		for _, e := range leaf {
			switch {
			case prev == nil:
				s.Low, s.ICard, s.ICardLead = e.Key[0], 1, 1
			case value.CompareKey(e.Key, prev) != 0:
				s.ICard++
				if value.Compare(e.Key[0], prev[0]) != 0 {
					s.ICardLead++
				}
			default:
				continue
			}
			prev = e.Key
		}
	}
	for _, leaf := range leaves {
		if len(leaf) > 0 {
			s.High = leaf[len(leaf)-1].Key[0]
		}
	}
	return s
}

// Renderings that spell every value with its bits, so that a comparison
// tells FLOAT 0.0 from -0.0, which value.Compare and reflect.DeepEqual
// both call equal.

func valueBits(v value.Value) string {
	return fmt.Sprintf("%v/%d/%x/%q", v.Kind, v.Int, math.Float64bits(v.Float), v.Str)
}

func colStatsBits(cols []catalog.ColStats) string {
	var b strings.Builder
	for _, cs := range cols {
		fmt.Fprintf(&b, "[%v %d %d", cs.HasStats, cs.NDistinct, cs.NullCount)
		if h := cs.Hist; h != nil {
			fmt.Fprintf(&b, " lo=%s n=%d", valueBits(h.Lo), h.NRows)
			for _, bk := range h.Buckets {
				fmt.Fprintf(&b, " (%s %d %d)", valueBits(bk.Hi), bk.Rows, bk.Distinct)
			}
		}
		b.WriteString("]")
	}
	return b.String()
}

func indexStatsBits(s catalog.IndexStats) string {
	return fmt.Sprintf("%v %d %d %d %s %s", s.HasStats, s.ICard, s.ICardLead, s.NIndx, valueBits(s.Low), valueBits(s.High))
}

func leavesBits(leaves [][]btree.Entry) string {
	var b strings.Builder
	for _, leaf := range leaves {
		b.WriteString("[")
		for _, e := range leaf {
			for _, v := range e.Key {
				b.WriteString(valueBits(v) + ",")
			}
			b.WriteString(e.TID.String() + " ")
		}
		b.WriteString("]")
	}
	return b.String()
}
