package exec

// Join operators: nested loops and merging scans (Section 5). Both hold
// persistent child operators — the nested-loop inner is re-opened (not
// rebuilt) per outer tuple, so its OpStats accumulate across loops and its
// Opens count is the join's loop count.
//
// Memory: every join's outer owns its rows, and so do a merge join's inner
// and a hash join's build, whose rows the join keeps across batches. A
// nested-loop inner is built lending (see buildLending): the join evaluates
// its residual on the inner's borrowed row and copies the inner's values
// only for the rows it keeps, into a value chunk of its own. A join built as
// the direct input of a projection, aggregation or sort lends its output
// too: it reuses its composite chunk, and a nested loop its value chunk,
// from one batch to the next (see joiner).

import (
	"fmt"

	"systemr/internal/plan"
	"systemr/internal/value"
)

// The current outer row is the one outerRead served last (see
// batchReader.last), not a field of its own: with the inner's value chunk
// beside the joiner, nlJoinOp fits the 112-byte allocation size class.
// TestScanOpsFitSizeClass pins it.
type nlJoinOp struct {
	ctx     *blockCtx
	node    *plan.NLJoin
	outer   *op
	inner   *op
	innerOn bool // inner currently open
	onOuter bool // an outer row is current
	out     joiner
	// vals holds the inner values of the rows the join keeps, handed out
	// in vals[:len] with room for more (see keepInner).
	vals value.Row

	// Children are read through batch adapters so their instrumented
	// boundaries are paid per batch; the inner's adapter is reset at each
	// re-open.
	outerRead *batchReader
	innerRead *batchReader
}

func (it *nlJoinOp) open() error {
	it.onOuter = false
	it.innerOn = false
	if err := it.outer.Open(); err != nil {
		return err
	}
	it.outerRead = it.ctx.reader(it.outerRead, it.outer)
	return nil
}

func (it *nlJoinOp) next() (comp, bool, error) {
	for {
		if !it.onOuter {
			oc, ok, err := it.outerRead.next()
			if err != nil || !ok {
				return nil, false, err
			}
			it.onOuter = true
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
			it.onOuter = false
			continue
		}
		left := it.innerRead.buffered() + 1
		c, keep, err := it.out.join(it.ctx, it.outerRead.last(), ic, it.node.Residual, left+it.outerRead.buffered())
		if err != nil {
			return nil, false, err
		}
		if keep {
			it.keepInner(c, ic, left)
			return c, true, nil
		}
	}
}

// keepInner points c's inner slots, which share the inner's borrowed batch,
// at copies carved from vals. An owning join sizes a new chunk for the
// left rows of the inner's current batch, this one included, so it
// allocates at most once per inner batch and copies no more than an inner
// that owned its rows would; it never writes a chunk's handed-out values
// again. A lending join starts vals over at each batch and doubles it when
// it runs out, so after warm-up it allocates nothing.
func (it *nlJoinOp) keepInner(c, inner comp, left int) {
	w := 0
	for _, r := range inner {
		w += len(r)
	}
	if cap(it.vals)-len(it.vals) < w {
		n := left * w
		if it.out.lend {
			n = max(n, 2*cap(it.vals))
		}
		it.vals = make(value.Row, 0, n)
	}
	for i, r := range inner {
		if r != nil {
			at := len(it.vals)
			it.vals = append(it.vals, r...)
			c[i] = it.vals[at:len(it.vals):len(it.vals)]
		}
	}
}

func (it *nlJoinOp) nextBatch(b *Batch) error {
	if it.out.lend {
		it.vals = it.vals[:0]
	}
	it.out.reset(b)
	return fillRows(b, it)
}

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
	out       joiner

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
		c, keep, err := it.out.join(it.ctx, it.curOuter, it.group[it.gi], it.node.Residual, len(it.group)-it.gi+it.outerRead.buffered())
		it.gi++
		if err != nil || keep {
			return c, keep, err
		}
	}
}

func (it *mergeJoinOp) nextBatch(b *Batch) error {
	it.out.reset(b)
	return fillRows(b, it)
}

func (it *mergeJoinOp) close() error {
	firstErr := it.outer.Close()
	if err := it.inner.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
