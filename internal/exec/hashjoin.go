package exec

// The hash join operator: the third join method the optimizer costs. OPEN
// drains the build side (the plan's Inner) into an in-memory hash table
// keyed on the encoded join value — pre-sized from the optimizer's build
// cardinality estimate — then NEXT probes it with each outer row. Unlike
// merging scans it produces no order; the optimizer prefers it only when no
// interesting order pays downstream.

import (
	"systemr/internal/plan"
	"systemr/internal/storage"
	"systemr/internal/value"
)

type hashJoinOp struct {
	ctx   *blockCtx
	node  *plan.HashJoin
	outer *op // probe side
	inner *op // build side

	table map[string][]comp
	// buildRows and buildBytes are the measured build-side actuals EXPLAIN
	// ANALYZE reports against the estimate the table was pre-sized from.
	buildRows  int64
	buildBytes int64

	outerRead *batchReader
	curOuter  comp
	cur       []comp
	ci        int
}

func (it *hashJoinOp) open() error {
	it.table = make(map[string][]comp, int(it.node.BuildRows)+1)
	it.buildRows, it.buildBytes = 0, 0
	it.curOuter, it.cur, it.ci = nil, nil, 0
	if err := it.inner.Open(); err != nil {
		return err
	}
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
		key := string(storage.EncodeRow(value.Row{k}))
		it.table[key] = append(it.table[key], c)
		it.buildRows++
		it.buildBytes += int64(len(key)) + compBytes(c)
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
			c := mergeComp(it.curOuter, it.cur[it.ci])
			it.ci++
			keep, err := it.ctx.applyResidual(c, it.node.Residual)
			if err != nil {
				return nil, false, err
			}
			if keep {
				return c, true, nil
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
		it.cur = it.table[string(storage.EncodeRow(value.Row{k}))]
		it.ci = 0
		it.curOuter = oc
	}
}

func (it *hashJoinOp) nextBatch(b *Batch) error { return fillRows(b, it) }

func (it *hashJoinOp) close() error {
	it.table, it.cur, it.curOuter = nil, nil, nil
	firstErr := it.outer.Close()
	if err := it.inner.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// compBytes estimates the retained bytes of a buffered composite row.
func compBytes(c comp) int64 {
	var n int64
	for _, r := range c {
		if r != nil {
			n += 16 + 8*int64(len(r))
		}
	}
	return n
}
