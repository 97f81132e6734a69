package exec

// Leaf operators: the RSS access paths (segment scan and index scan) exposed
// as physical operators. Both remember the TID of the last tuple returned so
// DML can locate the stored tuple behind each qualifying row (tidSource).

import (
	"systemr/internal/plan"
	"systemr/internal/rss"
	"systemr/internal/storage"
	"systemr/internal/value"
)

type segScanOp struct {
	ctx  *blockCtx
	node *plan.SegScan
	scan *rss.SegmentScan
	tid  storage.TID
}

func (it *segScanOp) open() error {
	sargs, err := it.ctx.resolveSargs(nil, it.node.Sargs)
	if err != nil {
		return err
	}
	it.scan = &rss.SegmentScan{
		Table: it.node.Table, Pool: it.ctx.rt.Pool, Sargs: sargs,
		Stmt: it.ctx.rt.IO, Budget: it.ctx.rt.Budget,
		Snap: it.ctx.rt.Snap,
	}
	return it.scan.Open()
}

// nextBatch fills b with qualifying rows, allocating composites from one
// per-call arena (consumers may retain the rows; the arena is never reused),
// allocated on the first row so the end-of-input call allocates nothing.
// The scan keeps its own per-tuple governor checkpoint.
func (it *segScanOp) nextBatch(b *Batch) error {
	nr := it.ctx.numRels()
	var arena []value.Row
	for !b.Full() {
		row, tid, ok, err := it.scan.Next()
		if err != nil || !ok {
			return err
		}
		if arena == nil {
			arena = make([]value.Row, b.Cap()*nr)
		}
		c := comp(arena[:nr:nr])
		c[it.node.RelIdx] = row
		keep, err := it.ctx.applyResidual(c, it.node.Residual)
		if err != nil {
			return err
		}
		if !keep {
			c[it.node.RelIdx] = nil // reuse the arena slot
			continue
		}
		arena = arena[nr:]
		it.tid = tid
		b.Append(c)
	}
	return nil
}

// close releases the scan; nulling the handle makes repeated closes (tree
// teardown after a nested-loop restart cycle) no-ops.
func (it *segScanOp) close() error {
	if it.scan != nil {
		s := it.scan
		it.scan = nil
		return s.Close()
	}
	return nil
}

func (it *segScanOp) lastTID() storage.TID { return it.tid }

type indexScanOp struct {
	ctx   *blockCtx
	node  *plan.IndexScan
	scan  *rss.IndexScan
	empty bool
	tid   storage.TID
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
	it.scan = &rss.IndexScan{
		Index: it.node.Index, Pool: it.ctx.rt.Pool,
		Lo: lo, LoInc: it.node.LoInc, Hi: hi, HiInc: it.node.HiInc,
		Sargs: sargs, Stmt: it.ctx.rt.IO, Budget: it.ctx.rt.Budget,
		Snap: it.ctx.rt.Snap,
	}
	return it.scan.Open()
}

// nextBatch is the segment scan's batch fill for index scans: one lazily
// allocated per-call arena of composites, per-tuple governor checkpoints
// inside the scan.
func (it *indexScanOp) nextBatch(b *Batch) error {
	if it.empty {
		return nil
	}
	nr := it.ctx.numRels()
	var arena []value.Row
	for !b.Full() {
		row, tid, ok, err := it.scan.Next()
		if err != nil || !ok {
			return err
		}
		if arena == nil {
			arena = make([]value.Row, b.Cap()*nr)
		}
		c := comp(arena[:nr:nr])
		c[it.node.RelIdx] = row
		keep, err := it.ctx.applyResidual(c, it.node.Residual)
		if err != nil {
			return err
		}
		if !keep {
			c[it.node.RelIdx] = nil
			continue
		}
		arena = arena[nr:]
		it.tid = tid
		b.Append(c)
	}
	return nil
}

func (it *indexScanOp) close() error {
	if it.scan != nil {
		s := it.scan
		it.scan = nil
		return s.Close()
	}
	return nil
}

func (it *indexScanOp) lastTID() storage.TID { return it.tid }
