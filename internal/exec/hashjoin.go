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

	// The current outer row is the one outerRead served last, and cur[ci:]
	// the build rows it has still to be joined with.
	outerRead *batchReader
	cur       []comp
	ci        int
	out       joiner
}

// open builds the table. The build keeps its rows for the whole run, past
// the batches its input lends them in, so each batch's rows with a join
// value (NULL keys match nothing) are copied into one value chunk and one
// composite chunk, both exactly sized. buildBytes counts those chunks, the
// table's key strings and the rows' string bytes.
func (it *hashJoinOp) open() error {
	it.table = make(map[string]int, int(it.node.BuildRows)+1)
	it.buildRows, it.buildBytes = 0, 0
	it.cur, it.ci = nil, 0
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
	col, nr := it.node.InnerCol, it.ctx.numRels()
	b := NewBatch(it.ctx.batchN())
	for {
		if err := it.inner.NextBatch(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			break
		}
		n, w := 0, 0
		for _, c := range b.rows {
			if !c[col.Rel][col.Col].IsNull() {
				n, w = n+1, w+compWidth(c)
			}
		}
		vals, comps := make(value.Row, 0, w), make([]value.Row, n*nr)
		it.buildRows += int64(n)
		it.buildBytes += int64(w)*int64(unsafe.Sizeof(value.Value{})) + int64(n*nr)*int64(unsafe.Sizeof(value.Row{}))
		for _, c := range b.rows {
			k := c[col.Rel][col.Col]
			if k.IsNull() {
				continue
			}
			kept := comp(comps[:nr:nr])
			comps = comps[nr:]
			copyComp(&vals, kept, c)
			it.key = storage.AppendEncodedRow(it.key[:0], value.Row{k})
			g, ok := it.table[string(it.key)]
			if !ok {
				g = len(it.table)
				it.table[string(it.key)] = g
				it.buildBytes += int64(len(it.key))
			}
			in = append(in, staged{g, kept})
		}
		for _, v := range vals {
			it.buildBytes += int64(len(v.Str))
		}
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

// next joins the current outer row with its build rows, which the join
// holds, so a kept row copies nothing.
func (it *hashJoinOp) next() (comp, bool, error) {
	for {
		if it.ci < len(it.cur) {
			c, keep, err := it.out.join(it.ctx, it.outerRead.last(), it.cur[it.ci], it.node.Residual, len(it.cur)-it.ci+it.outerRead.buffered(), false)
			it.ci++
			if err != nil || keep {
				return c, keep, err
			}
			continue
		}
		if it.out.endsBatch(it.outerRead) {
			return nil, false, nil
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
		it.cur, it.ci = nil, 0
		if g, ok := it.table[string(it.key)]; ok {
			it.cur = it.rows[it.bounds[g]:it.bounds[g+1]]
		}
	}
}

func (it *hashJoinOp) nextBatch(b *Batch) error {
	it.out.reset()
	return fillRows(b, it)
}

func (it *hashJoinOp) close() error {
	it.table, it.rows, it.bounds, it.cur = nil, nil, nil, nil
	firstErr := it.outer.Close()
	if err := it.inner.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
