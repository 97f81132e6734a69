package exec

// Leaf operators: the RSS access paths (segment scan and index scan) exposed
// as physical operators. Both remember the TID of the last tuple returned so
// DML can locate the stored tuple behind each qualifying row (tidSource).
//
// Memory: a scan decodes every version it examines into its stage — one
// value slice the operator reuses for its whole life, starting in an array
// inside the operator so a one-row probe allocates nothing for it. The RSS
// truncates the stage again when the relation, snapshot or SARGs reject a
// version, and the operator does the same when its residual predicates do.
// At the end of each nextBatch the accepted rows are copied out into one
// exactly sized value chunk and one composite chunk, which the batch hands
// to its consumer: two allocations per batch, none per tuple (a VARCHAR
// column still allocates its string), and nothing in a batch aliases the
// stage, so consumers may retain the rows.

import (
	"systemr/internal/plan"
	"systemr/internal/rss"
	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// scanStage holds the rows one scan nextBatch has accepted so far, back to
// back in vals, with ends[i] the end of row i.
type scanStage struct {
	vals    value.Row
	ends    []int
	scratch comp // residual evaluation composite; built on the first residual
	valsBuf [16]value.Value
	endsBuf [8]int
}

// reset empties the stage for a new batch, keeping whatever room it has
// grown to.
func (st *scanStage) reset() {
	if st.vals == nil {
		st.vals, st.ends = st.valsBuf[:0], st.endsBuf[:0]
	}
	st.vals, st.ends = st.vals[:0], st.ends[:0]
}

// rows returns the number of rows accepted since reset.
func (st *scanStage) rows() int { return len(st.ends) }

// accept judges the row the RSS just appended: vals is the stage extended
// by it. The row is kept when the node's residual predicates hold and
// truncated away otherwise.
func (st *scanStage) accept(ctx *blockCtx, vals value.Row, relIdx int, residual []sem.Expr) (bool, error) {
	start := 0
	if n := len(st.ends); n > 0 {
		start = st.ends[n-1]
	}
	st.vals = vals
	if len(residual) > 0 {
		if st.scratch == nil {
			st.scratch = make(comp, ctx.numRels())
		}
		st.scratch[relIdx] = vals[start:]
		keep, err := ctx.applyResidual(st.scratch, residual)
		st.scratch[relIdx] = nil
		if err != nil || !keep {
			st.vals = vals[:start]
			return false, err
		}
	}
	st.ends = append(st.ends, len(vals))
	return true, nil
}

// emit copies the accepted rows out of the stage into b: one value chunk
// and one composite chunk, both exactly sized, with room reserved in b for
// exactly those rows. An empty stage (end of input) allocates nothing.
func (st *scanStage) emit(ctx *blockCtx, b *Batch, relIdx int) {
	if len(st.ends) == 0 {
		return
	}
	nr := ctx.numRels()
	vals := make(value.Row, len(st.vals))
	copy(vals, st.vals)
	comps := make([]value.Row, len(st.ends)*nr)
	b.grow(len(st.ends))
	start := 0
	for _, end := range st.ends {
		c := comp(comps[:nr:nr])
		comps = comps[nr:]
		c[relIdx] = vals[start:end:end]
		start = end
		b.Append(c)
	}
}

type segScanOp struct {
	ctx   *blockCtx
	node  *plan.SegScan
	scan  rss.SegmentScan
	tid   storage.TID
	stage scanStage
}

func (it *segScanOp) open() error {
	sargs, err := it.ctx.resolveSargs(nil, it.node.Sargs)
	if err != nil {
		return err
	}
	it.scan = rss.SegmentScan{
		Table: it.node.Table, Pool: it.ctx.rt.Pool, Sargs: sargs,
		Stmt: it.ctx.rt.IO, Budget: it.ctx.rt.Budget,
		Snap: it.ctx.rt.Snap,
	}
	return it.scan.Open()
}

// nextBatch fills b with qualifying rows through the stage (see the file
// comment). The scan keeps its own per-tuple governor checkpoint.
func (it *segScanOp) nextBatch(b *Batch) error {
	st := &it.stage
	st.reset()
	for st.rows() < b.Cap() {
		vals, tid, ok, err := it.scan.NextInto(st.vals)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		keep, err := st.accept(it.ctx, vals, it.node.RelIdx, it.node.Residual)
		if err != nil {
			return err
		}
		if keep {
			it.tid = tid
		}
	}
	st.emit(it.ctx, b, it.node.RelIdx)
	return nil
}

// close releases the scan; the RSS close is idempotent, so repeated closes
// (tree teardown after a nested-loop restart cycle) are no-ops.
func (it *segScanOp) close() error { return it.scan.Close() }

func (it *segScanOp) lastTID() storage.TID { return it.tid }

type indexScanOp struct {
	ctx   *blockCtx
	node  *plan.IndexScan
	scan  rss.IndexScan
	empty bool
	tid   storage.TID
	stage scanStage
}

func (it *indexScanOp) open() error {
	// A NULL key bound can match nothing (comparisons with NULL are false):
	// the scan is empty.
	lo, hi, empty, err := it.ctx.resolveKeyBounds(it.node)
	if err != nil {
		return err
	}
	it.empty = empty
	sargs, err := it.ctx.resolveSargs(nil, it.node.Sargs)
	if err != nil {
		return err
	}
	if it.empty {
		return nil
	}
	it.scan = rss.IndexScan{
		Index: it.node.Index, Pool: it.ctx.rt.Pool,
		Lo: lo, LoInc: it.node.LoInc, Hi: hi, HiInc: it.node.HiInc,
		Sargs: sargs, Stmt: it.ctx.rt.IO, Budget: it.ctx.rt.Budget,
		Snap: it.ctx.rt.Snap,
	}
	return it.scan.Open()
}

// nextBatch is the segment scan's batch fill for index scans.
func (it *indexScanOp) nextBatch(b *Batch) error {
	if it.empty {
		return nil
	}
	st := &it.stage
	st.reset()
	for st.rows() < b.Cap() {
		vals, tid, ok, err := it.scan.NextInto(st.vals)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		keep, err := st.accept(it.ctx, vals, it.node.RelIdx, it.node.Residual)
		if err != nil {
			return err
		}
		if keep {
			it.tid = tid
		}
	}
	st.emit(it.ctx, b, it.node.RelIdx)
	return nil
}

func (it *indexScanOp) close() error { return it.scan.Close() }

func (it *indexScanOp) lastTID() storage.TID { return it.tid }
