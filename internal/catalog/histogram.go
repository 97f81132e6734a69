package catalog

// Per-column statistics beyond Section 4: equi-depth histograms and
// distinct-value counts, built by UPDATE STATISTICS independently of any
// index. Table 1's uniformity assumption (1/ICARD for equality, linear
// interpolation between the index's low and high key for ranges) is the
// paper's known weak spot on skewed data; a histogram answers the same
// questions — "how many rows equal v", "how many rows fall below v" — from
// the observed distribution instead.
//
// The histogram is equi-depth with heavy-hitter isolation: sorted column
// values are grouped by value, groups are packed into buckets of roughly
// NRows/MaxHistBuckets rows each, and a value group at least one bucket deep
// gets a bucket of its own. A value group is never split across buckets, so
// a bucket's Rows/Distinct ratio is an exact per-key average for the keys it
// holds, and the hottest keys are estimated exactly.
//
// Everything here answers in ROW COUNTS, not fractions. Selectivity
// fractions are computed only in internal/core, and clamped to [0, 1] where
// every factor's F is assigned (core's selectivity).

import (
	"sort"

	"systemr/internal/value"
)

// MaxHistBuckets bounds the buckets per column histogram. 64 buckets resolve
// ~1.5% of the rows per bucket while keeping the syscat publication and the
// per-predicate estimation walk small.
const MaxHistBuckets = 64

// ColStats are the per-column statistics UPDATE STATISTICS builds for every
// column of an analyzed relation (indexed or not).
type ColStats struct {
	// HasStats is false until UPDATE STATISTICS runs (or when the column's
	// rows could not be decoded).
	HasStats bool
	// NDistinct counts distinct non-null values observed.
	NDistinct int
	// NullCount counts NULLs observed.
	NullCount int
	// Hist is the equi-depth histogram over non-null values; nil when the
	// column had no non-null rows.
	Hist *Histogram
}

// EffNDistinct returns the distinct-value count floored at 1, so 1/NDistinct
// estimates stay finite for analyzed-but-empty columns.
func (s ColStats) EffNDistinct() float64 {
	if !s.HasStats || s.NDistinct < 1 {
		return 1
	}
	return float64(s.NDistinct)
}

// Bucket is one equi-depth histogram bucket: the rows with values in
// (previous bucket's Hi, Hi] — the first bucket's range starts at the
// histogram's Lo, inclusive.
type Bucket struct {
	Hi       value.Value // inclusive upper boundary
	Rows     int64       // rows in the bucket
	Distinct int64       // distinct values in the bucket
}

// Histogram is an equi-depth histogram over one column's non-null values.
type Histogram struct {
	Lo      value.Value // smallest value observed
	Buckets []Bucket    // ascending by Hi
	NRows   int64       // total non-null rows
}

// buildColStats sorts one column's observed values and packs them into an
// equi-depth histogram. vals may be reordered in place.
func buildColStats(vals []value.Value, maxBuckets int) ColStats {
	cs := ColStats{HasStats: true}
	// NULLs sort first under value.Compare; strip them off the front.
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
	if maxBuckets < 1 {
		maxBuckets = MaxHistBuckets
	}
	// depth: target rows per bucket, rounded up so we never exceed maxBuckets.
	depth := (int64(len(vals)) + int64(maxBuckets) - 1) / int64(maxBuckets)
	if depth < 1 {
		depth = 1
	}
	h := &Histogram{Lo: vals[0], NRows: int64(len(vals))}
	var cur Bucket
	flush := func() {
		if cur.Rows > 0 {
			h.Buckets = append(h.Buckets, cur)
			cur = Bucket{}
		}
	}
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && value.Compare(vals[j], vals[i]) == 0 {
			j++
		}
		group := int64(j - i)
		cs.NDistinct++
		// A heavy hitter (a group at least one bucket deep) is isolated in
		// its own bucket so its exact count survives; groups are never split,
		// so closing the current bucket first keeps boundaries on group edges.
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

// TotalRows returns the histogram's non-null row count.
func (h *Histogram) TotalRows() float64 { return float64(h.NRows) }

// maxKey returns the histogram's largest value.
func (h *Histogram) maxKey() value.Value { return h.Buckets[len(h.Buckets)-1].Hi }

// bucketFor returns the index of the bucket containing v: the first bucket
// whose Hi is >= v. ok is false when v lies outside [Lo, maxKey] — under
// stale statistics data may exist there anyway, which the caller floors.
func (h *Histogram) bucketFor(v value.Value) (int, bool) {
	if len(h.Buckets) == 0 || value.Compare(v, h.Lo) < 0 || value.Compare(v, h.maxKey()) > 0 {
		return 0, false
	}
	i := sort.Search(len(h.Buckets), func(i int) bool {
		return value.Compare(h.Buckets[i].Hi, v) >= 0
	})
	return i, true
}

// EqRows estimates the rows equal to v as the containing bucket's average
// rows per key. ok is false when v is outside the histogram's key range
// (nothing was observed there when statistics ran).
func (h *Histogram) EqRows(v value.Value) (rows float64, ok bool) {
	i, ok := h.bucketFor(v)
	if !ok {
		return 0, false
	}
	b := h.Buckets[i]
	d := b.Distinct
	if d < 1 {
		d = 1
	}
	return float64(b.Rows) / float64(d), true
}

// LtRows estimates the rows strictly below v: every bucket wholly below,
// plus an intra-bucket share of the containing one — linear interpolation
// when the boundary values are arithmetic, half the bucket otherwise
// (character columns have no distance metric, as in Table 1).
func (h *Histogram) LtRows(v value.Value) float64 {
	if len(h.Buckets) == 0 || value.Compare(v, h.Lo) <= 0 {
		return 0
	}
	if value.Compare(v, h.maxKey()) > 0 {
		return float64(h.NRows)
	}
	i, _ := h.bucketFor(v)
	below := int64(0)
	for k := 0; k < i; k++ {
		below += h.Buckets[k].Rows
	}
	b := h.Buckets[i]
	lower := h.Lo
	if i > 0 {
		lower = h.Buckets[i-1].Hi
	}
	return float64(below) + h.bucketShareBelow(b, lower, v)
}

// bucketShareBelow estimates how many of bucket b's rows lie strictly below
// v, where lower is the bucket's lower boundary (the previous Hi, or Lo).
func (h *Histogram) bucketShareBelow(b Bucket, lower, v value.Value) float64 {
	perKey := float64(b.Rows)
	if b.Distinct > 0 {
		perKey = float64(b.Rows) / float64(b.Distinct)
	}
	if b.Distinct <= 1 {
		// Singleton bucket: every row equals Hi; none are strictly below a
		// v <= Hi.
		return 0
	}
	if value.Compare(v, b.Hi) == 0 {
		// Everything but v's own rows.
		part := float64(b.Rows) - perKey
		if part < 0 {
			return 0
		}
		return part
	}
	hiF, loF, vF := b.Hi.AsFloat(), lower.AsFloat(), v.AsFloat()
	if b.Hi.Kind.Arithmetic() && lower.Kind.Arithmetic() && v.Kind.Arithmetic() && hiF > loF {
		part := float64(b.Rows) * (vF - loF) / (hiF - loF)
		if part < 0 {
			part = 0
		}
		if part > float64(b.Rows) {
			part = float64(b.Rows)
		}
		return part
	}
	// No distance metric: assume half the bucket.
	return float64(b.Rows) / 2
}

// LeRows estimates the rows at or below v.
func (h *Histogram) LeRows(v value.Value) float64 {
	rows := h.LtRows(v)
	if eq, ok := h.EqRows(v); ok {
		rows += eq
	}
	total := float64(h.NRows)
	if rows > total {
		return total
	}
	return rows
}
