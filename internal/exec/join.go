package exec

// Join operators: nested loops and merging scans (Section 5). Both hold
// persistent child operators — the nested-loop inner is re-opened (not
// rebuilt) per outer tuple, so its OpStats accumulate across loops and its
// Opens count is the join's loop count.

import (
	"fmt"

	"systemr/internal/plan"
	"systemr/internal/value"
)

type nlJoinOp struct {
	ctx      *blockCtx
	node     *plan.NLJoin
	outer    *op
	inner    *op
	curOuter comp
	innerOn  bool // inner currently open

	// Children are read through batch adapters so their instrumented
	// boundaries are paid per batch; the inner's adapter is reset at each
	// re-open.
	outerRead *batchReader
	innerRead *batchReader
}

func (it *nlJoinOp) open() error {
	it.curOuter = nil
	it.innerOn = false
	if err := it.outer.Open(); err != nil {
		return err
	}
	it.outerRead = it.ctx.reader(it.outerRead, it.outer)
	return nil
}

func (it *nlJoinOp) next() (comp, bool, error) {
	for {
		if it.curOuter == nil {
			oc, ok, err := it.outerRead.next()
			if err != nil || !ok {
				return nil, false, err
			}
			it.curOuter = oc
			// Bind the outer tuple's join values into the parameters the
			// inner scan's start/stop keys and SARGs reference, then
			// (re-)open the inner — one inner scan per outer tuple, as the
			// nested-loops cost formula assumes. The previous inner scan is
			// closed first, and its close error propagates.
			for _, b := range it.node.Binds {
				row := oc[b.From.Rel]
				if row == nil {
					return nil, false, fmt.Errorf("exec: nested-loop bind from missing relation %d", b.From.Rel)
				}
				it.ctx.params[b.Param] = row[b.From.Col]
			}
			if it.innerOn {
				it.innerOn = false
				if err := it.inner.Close(); err != nil {
					return nil, false, err
				}
			}
			if err := it.inner.Open(); err != nil {
				return nil, false, err
			}
			it.innerOn = true
			it.innerRead = it.ctx.reader(it.innerRead, it.inner)
		}
		ic, ok, err := it.innerRead.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			it.curOuter = nil
			continue
		}
		c := mergeComp(it.curOuter, ic)
		keep, err := it.ctx.applyResidual(c, it.node.Residual)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return c, true, nil
		}
	}
}

func (it *nlJoinOp) nextBatch(b *Batch) error { return fillRows(b, it) }

// close releases both sides, returning the first error but always closing
// the outer even when the inner's close fails.
func (it *nlJoinOp) close() error {
	var firstErr error
	if it.innerOn {
		it.innerOn = false
		if err := it.inner.Close(); err != nil {
			firstErr = err
		}
	}
	if err := it.outer.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// mergeJoinOp synchronizes two scans ordered on the join columns,
// remembering the current inner join group so it is never rescanned
// ("remembering where matching join groups are located", Section 5).
type mergeJoinOp struct {
	ctx   *blockCtx
	node  *plan.MergeJoin
	outer *op
	inner *op

	curOuter  comp
	group     []comp
	groupKey  value.Value
	haveGroup bool
	gi        int
	lookahead comp
	innerDone bool

	outerRead *batchReader
	innerRead *batchReader
}

func (it *mergeJoinOp) open() error {
	it.curOuter, it.group, it.haveGroup, it.gi = nil, nil, false, 0
	it.lookahead, it.innerDone = nil, false
	if err := it.outer.Open(); err != nil {
		return err
	}
	if err := it.inner.Open(); err != nil {
		return err
	}
	it.outerRead = it.ctx.reader(it.outerRead, it.outer)
	it.innerRead = it.ctx.reader(it.innerRead, it.inner)
	return nil
}

func (it *mergeJoinOp) innerNext() (comp, bool, error) {
	if it.lookahead != nil {
		c := it.lookahead
		it.lookahead = nil
		return c, true, nil
	}
	if it.innerDone {
		return nil, false, nil
	}
	c, ok, err := it.innerRead.next()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		it.innerDone = true
		return nil, false, nil
	}
	return c, true, nil
}

// loadGroup positions the inner group at the first key >= key and buffers
// all inner rows equal to it.
func (it *mergeJoinOp) loadGroup(key value.Value) error {
	// Reuse the current group if it already matches.
	if it.haveGroup && value.Compare(it.groupKey, key) == 0 {
		return nil
	}
	// Skip groups below the outer key.
	for {
		if it.haveGroup && value.Compare(it.groupKey, key) >= 0 {
			return nil
		}
		c, ok, err := it.innerNext()
		if err != nil {
			return err
		}
		if !ok {
			it.haveGroup = false
			it.group = nil
			return nil
		}
		k := c[it.node.InnerCol.Rel][it.node.InnerCol.Col]
		if k.IsNull() {
			continue // NULL join keys match nothing
		}
		if value.Compare(k, key) < 0 {
			continue
		}
		// Buffer the whole group with this key.
		it.group = it.group[:0]
		it.group = append(it.group, c)
		it.groupKey = k
		it.haveGroup = true
		for {
			nc, ok, err := it.innerNext()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			nk := nc[it.node.InnerCol.Rel][it.node.InnerCol.Col]
			if value.Compare(nk, k) == 0 {
				it.group = append(it.group, nc)
				continue
			}
			it.lookahead = nc
			break
		}
		return nil
	}
}

func (it *mergeJoinOp) next() (comp, bool, error) {
	for {
		if it.curOuter == nil {
			oc, ok, err := it.outerRead.next()
			if err != nil || !ok {
				return nil, false, err
			}
			key := oc[it.node.OuterCol.Rel][it.node.OuterCol.Col]
			if key.IsNull() {
				continue
			}
			if err := it.loadGroup(key); err != nil {
				return nil, false, err
			}
			if !it.haveGroup || value.Compare(it.groupKey, key) != 0 {
				continue // no matching inner group
			}
			it.curOuter = oc
			it.gi = 0
		}
		if it.gi >= len(it.group) {
			it.curOuter = nil
			continue
		}
		c := mergeComp(it.curOuter, it.group[it.gi])
		it.gi++
		keep, err := it.ctx.applyResidual(c, it.node.Residual)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return c, true, nil
		}
	}
}

func (it *mergeJoinOp) nextBatch(b *Batch) error { return fillRows(b, it) }

func (it *mergeJoinOp) close() error {
	firstErr := it.outer.Close()
	if err := it.inner.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
