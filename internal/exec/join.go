package exec

// Join operators: nested loops and merging scans (Section 5). Both hold
// persistent child operators — the nested-loop inner is re-opened (not
// rebuilt) per outer tuple, so its OpStats accumulate across loops and its
// Opens count is the join's loop count.
//
// Memory: like every operator, a join's children lend their rows, valid
// until their next NextBatch, Open or Close (see batch.go), and a join lends
// its own in turn. A join copies only what it keeps past its children's
// batches. Its output rows point into its outer's current batch, which it
// therefore never replaces in the middle of a batch (see
// joiner.endsBatch). A nested loop copies the inner values of the rows it
// keeps, as its inner is re-opened per outer row; a merge join copies its
// inner group as it reads it, and then the inner values of the rows it
// keeps, as the group changes within a batch; a hash join copies its build
// (see hashjoin.go), which its rows then point into.

import (
	"fmt"

	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/value"
)

// joiner builds a join's output rows in chunks the join reuses from batch
// to batch. A candidate pair is merged into the composite chunk's next free
// slot and the residual is evaluated there; only a kept row advances past
// the slot, so a rejected one leaves it as scratch for the next candidate.
// A kept row's outer slots point into the outer's current batch, so the
// join ends its batch rather than read the outer's next one (see
// endsBatch); its inner slots point at copies in vals unless the join holds
// the inner row for its whole run (a hash build).
type joiner struct {
	chunk []value.Row // slots handed out this batch, with room for more
	vals  value.Row   // inner values copied this batch, with room for more
	kept  bool        // the batch has a row
}

// reset starts a batch, in the chunks the last one used: its rows are no
// longer valid.
func (j *joiner) reset() { j.chunk, j.vals, j.kept = j.chunk[:0], j.vals[:0], false }

// endsBatch reports whether the join must end its batch before it reads
// another outer row from outer: its rows point into the outer's current
// batch, and outer would read the next one.
func (j *joiner) endsBatch(outer *batchReader) bool { return j.kept && outer.buffered() == 0 }

// join merges outer and inner, applies residual, and returns the joined
// composite if it is kept, with copies of the inner's values when
// copyInner. pending counts the candidates the operator holds for now, this
// one included — what is left of the probe's match list, the duplicate
// group or the inner's batch, plus the outer rows buffered behind this one.
// A chunk that runs out of room is replaced by one with room for that many
// rows, up to the batch target, or twice as many as before; so the join
// grows its chunks to a batch and then allocates nothing.
func (j *joiner) join(ctx *blockCtx, outer, inner comp, residual []sem.Expr, pending int, copyInner bool) (comp, bool, error) {
	n, at := len(outer), len(j.chunk)
	if cap(j.chunk)-at < n {
		rows := min(max(pending, 2*cap(j.chunk)/n, 1), ctx.batchN())
		j.chunk, at = make([]value.Row, 0, rows*n), 0
	}
	c := comp(j.chunk[at : at+n : at+n])
	mergeComp(c, outer, inner)
	keep, err := ctx.applyResidual(c, residual)
	if err != nil || !keep {
		return nil, false, err
	}
	j.chunk, j.kept = j.chunk[:at+n], true
	if copyInner {
		if w := compWidth(inner); cap(j.vals)-len(j.vals) < w {
			j.vals = make(value.Row, 0, max(min(pending, ctx.batchN())*w, 2*cap(j.vals)))
		}
		copyComp(&j.vals, c, inner)
	}
	return c, true, nil
}

type nlJoinOp struct {
	ctx     *blockCtx
	node    *plan.NLJoin
	outer   *op
	inner   *op
	innerOn bool // inner currently open
	onOuter bool // an outer row is current: the one outerRead served last
	out     joiner

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
			if it.out.endsBatch(it.outerRead) {
				return nil, false, nil
			}
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
		pending := it.innerRead.buffered() + 1 + it.outerRead.buffered()
		c, keep, err := it.out.join(it.ctx, it.outerRead.last(), ic, it.node.Residual, pending, true)
		if err != nil || keep {
			return c, keep, err
		}
	}
}

func (it *nlJoinOp) nextBatch(b *Batch) error {
	it.out.reset()
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
// ("remembering where matching join groups are located", Section 5). The
// group outlives the inner's batches, so it is copied as it is read, into
// slots and values the join reuses from group to group.
type mergeJoinOp struct {
	ctx   *blockCtx
	node  *plan.MergeJoin
	outer *op
	inner *op

	group     []value.Row // the group's rows, one slot per relation each
	groupVals value.Row   // the values the group's slots point at
	gi        int         // the group row to join with the current outer next
	onOuter   bool        // an outer row is current: the one outerRead served last
	out       joiner

	outerRead *batchReader
	innerRead *batchReader
}

func (it *mergeJoinOp) open() error {
	it.group, it.groupVals, it.gi, it.onOuter = it.group[:0], it.groupVals[:0], 0, false
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

// groupLen returns the number of rows in the group.
func (it *mergeJoinOp) groupLen() int { return len(it.group) / it.ctx.numRels() }

// groupRow returns the group's row g.
func (it *mergeJoinOp) groupRow(g int) comp {
	nr := it.ctx.numRels()
	return comp(it.group[g*nr : (g+1)*nr : (g+1)*nr])
}

// groupKey returns the group's join value: its first row's.
func (it *mergeJoinOp) groupKey() value.Value {
	return it.groupRow(0)[it.node.InnerCol.Rel][it.node.InnerCol.Col]
}

// loadGroup positions the inner group at the first key >= key and buffers
// all inner rows equal to it; a current group already there stays.
func (it *mergeJoinOp) loadGroup(key value.Value) error {
	if it.groupLen() > 0 && value.Compare(it.groupKey(), key) >= 0 {
		return nil
	}
	it.group, it.groupVals = it.group[:0], it.groupVals[:0]
	for {
		c, ok, err := it.innerRead.next()
		if err != nil || !ok {
			return err
		}
		k := c[it.node.InnerCol.Rel][it.node.InnerCol.Col]
		if k.IsNull() || value.Compare(k, key) < 0 {
			continue // NULL join keys match nothing; skip groups below key
		}
		if it.groupLen() > 0 && value.Compare(k, it.groupKey()) != 0 {
			it.innerRead.unread() // the next group's first row
			return nil
		}
		at := len(it.group)
		it.group = append(it.group, c...)
		copyComp(&it.groupVals, it.group[at:], c)
	}
}

func (it *mergeJoinOp) next() (comp, bool, error) {
	for {
		if !it.onOuter {
			if it.out.endsBatch(it.outerRead) {
				return nil, false, nil
			}
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
			if it.groupLen() == 0 || value.Compare(it.groupKey(), key) != 0 {
				continue // no matching inner group
			}
			it.onOuter, it.gi = true, 0
		}
		n := it.groupLen()
		if it.gi >= n {
			it.onOuter = false
			continue
		}
		c, keep, err := it.out.join(it.ctx, it.outerRead.last(), it.groupRow(it.gi), it.node.Residual, n-it.gi+it.outerRead.buffered(), true)
		it.gi++
		if err != nil || keep {
			return c, keep, err
		}
	}
}

func (it *mergeJoinOp) nextBatch(b *Batch) error {
	it.out.reset()
	return fillRows(b, it)
}

func (it *mergeJoinOp) close() error {
	firstErr := it.outer.Close()
	if err := it.inner.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
