package exec

// The hash join operator: the third join method the optimizer costs. OPEN
// drains the build side (the plan's Inner) into an in-memory hash table
// keyed on the encoded join value — pre-sized from the optimizer's build
// cardinality estimate — then NEXT probes it with each outer row. Unlike
// merging scans it produces no order; the optimizer prefers it only when no
// interesting order pays downstream.

import (
	"unsafe"

	"systemr/internal/plan"
	"systemr/internal/storage"
	"systemr/internal/value"
)

type hashJoinOp struct {
	ctx   *blockCtx
	node  *plan.HashJoin
	outer *op // probe side
	inner *op // build side

	// table maps an encoded join value to its group's index, so adding a
	// row to an existing group and probing both look the key up without
	// allocating; only a new key allocates its string. Group g's build rows
	// are rows[bounds[g]:bounds[g+1]].
	table  map[string]int
	rows   []comp
	bounds []int
	key    []byte // reused encoding buffer for build and probe keys
	// buildRows and buildBytes are the measured build-side actuals EXPLAIN
	// ANALYZE reports against the estimate the table was pre-sized from.
	buildRows  int64
	buildBytes int64

	outerRead *batchReader
	curOuter  comp
	cur       []comp
	ci        int
	out       joiner
}

func (it *hashJoinOp) open() error {
	it.table = make(map[string]int, int(it.node.BuildRows)+1)
	it.buildRows, it.buildBytes = 0, 0
	it.curOuter, it.cur, it.ci = nil, nil, 0
	if err := it.inner.Open(); err != nil {
		return err
	}
	// Count, then place: the build rows are staged in arrival order with
	// their group, and then laid out group by group in one array.
	type staged struct {
		g int
		c comp
	}
	in := make([]staged, 0, int(it.node.BuildRows)+1)
	build := it.ctx.reader(nil, it.inner)
	for {
		c, ok, err := build.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k := c[it.node.InnerCol.Rel][it.node.InnerCol.Col]
		if k.IsNull() {
			continue // NULL join keys match nothing
		}
		it.key = storage.AppendEncodedRow(it.key[:0], value.Row{k})
		g, ok := it.table[string(it.key)]
		if !ok {
			g = len(it.table)
			it.table[string(it.key)] = g
		}
		in = append(in, staged{g, c})
		it.buildRows++
		it.buildBytes += int64(len(it.key)) + compBytes(c)
	}
	it.bounds = make([]int, len(it.table)+1)
	for _, s := range in {
		it.bounds[s.g]++
	}
	for g := 1; g < len(it.bounds); g++ {
		it.bounds[g] += it.bounds[g-1] // now group g's end
	}
	// Placing from the back moves each bounds[g] down to group g's start
	// and keeps every group in arrival order.
	it.rows = make([]comp, len(in))
	for i := len(in) - 1; i >= 0; i-- {
		it.bounds[in[i].g]--
		it.rows[it.bounds[in[i].g]] = in[i].c
	}
	// The build side is exhausted; release its scan before probing starts.
	if err := it.inner.Close(); err != nil {
		return err
	}
	if err := it.outer.Open(); err != nil {
		return err
	}
	it.outerRead = it.ctx.reader(it.outerRead, it.outer)
	return nil
}

func (it *hashJoinOp) next() (comp, bool, error) {
	for {
		if it.ci < len(it.cur) {
			c, keep, err := it.out.join(it.ctx, it.curOuter, it.cur[it.ci], it.node.Residual, len(it.cur)-it.ci+it.outerRead.buffered())
			it.ci++
			if err != nil || keep {
				return c, keep, err
			}
			continue
		}
		oc, ok, err := it.outerRead.next()
		if err != nil || !ok {
			return nil, false, err
		}
		k := oc[it.node.OuterCol.Rel][it.node.OuterCol.Col]
		if k.IsNull() {
			continue
		}
		it.key = storage.AppendEncodedRow(it.key[:0], value.Row{k})
		it.cur = nil
		if g, ok := it.table[string(it.key)]; ok {
			it.cur = it.rows[it.bounds[g]:it.bounds[g+1]]
		}
		it.ci = 0
		it.curOuter = oc
	}
}

func (it *hashJoinOp) nextBatch(b *Batch) error {
	it.out.reset(b)
	return fillRows(b, it)
}

func (it *hashJoinOp) close() error {
	it.table, it.rows, it.bounds, it.cur, it.curOuter = nil, nil, nil, nil, nil
	firstErr := it.outer.Close()
	if err := it.inner.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// compBytes estimates the retained bytes of a buffered composite row: per
// filled slot, the row's slice header, its values, and its strings' bytes.
func compBytes(c comp) int64 {
	var n int64
	for _, r := range c {
		if r == nil {
			continue
		}
		n += 16 + int64(unsafe.Sizeof(value.Value{}))*int64(len(r))
		for _, v := range r {
			n += int64(len(v.Str))
		}
	}
	return n
}
