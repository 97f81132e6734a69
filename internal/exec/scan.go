package exec

// Leaf operators: the RSS access paths (segment scan and index scan) exposed
// as physical operators. Both remember the TID of the last tuple returned so
// DML can locate the stored tuple behind each qualifying row (tidSource).
//
// Memory: a scan decodes every version it examines into its stage — one
// value slice the operator reuses for its whole life, starting in an array
// inside the operator so a one-row probe allocates nothing for it. The
// first row that overflows that array sizes the stage once (see reserve)
// rather than letting it regrow from 16 values by doubling. The RSS
// truncates the stage again when the relation, snapshot or SARGs reject a
// version, and the operator does the same when its residual predicates do.
//
// At the end of each nextBatch the batch is handed the stage's own rows,
// in composites carved from one chunk the scan reuses across batches, so
// after warm-up a batch allocates nothing. The rows are valid until the
// scan's next NextBatch, Open or Close (see batch.go). A row's VARCHAR values
// are carved from the block's string arena (blockCtx.strs), whose bytes are
// never rewritten, so a consumer that copies a row's values keeps its
// strings.

import (
	"math"
	"slices"

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
	scratch comp        // residual evaluation composite; built on the first residual
	comps   []value.Row // the composite chunk, reused across batches
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

// room runs before each RSS call that decodes onto the stage, so the
// stage is sized once: see reserve.
func (st *scanStage) room(b *Batch, n plan.Node, width int) {
	if len(st.vals)+width > cap(st.vals) && cap(st.vals) == len(st.valsBuf) {
		st.reserve(b, n, width)
	}
}

// reserve runs when a row of width values would overflow the inline array.
// An estimate below a batch reserves room for the estimated rows in one
// allocation. A larger one is not trusted with a batch of room: a range on
// a prepared statement's ? bounds is estimated from the default
// selectivity (a quarter of the relation), so a 10-row BETWEEN would hold
// a 256-row stage. The stage then grows to four times the inline array.
// Past the reservation the decoder grows it by doubling.
func (st *scanStage) reserve(b *Batch, n plan.Node, width int) {
	want := 4 * len(st.valsBuf)
	if est := n.Est().Rows; est < float64(b.Cap()) {
		want = int(math.Ceil(est)) * width
	}
	st.vals = slices.Grow(st.vals, max(want, len(st.vals)+width)-len(st.vals))
}

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

// emit hands the accepted rows to b, with room reserved in b for exactly
// those rows, in composites carved from the stage's composite chunk.
func (st *scanStage) emit(ctx *blockCtx, b *Batch, relIdx int) {
	nr := ctx.numRels()
	if n := len(st.ends) * nr; cap(st.comps) < n {
		st.comps = make([]value.Row, n)
	}
	b.grow(len(st.ends))
	comps, start := st.comps, 0
	for _, end := range st.ends {
		c := comp(comps[:nr:nr])
		comps = comps[nr:]
		c[relIdx] = st.vals[start:end:end]
		start = end
		b.Append(c)
	}
}

// A scan's start and stop keys and its search arguments are resolved to
// values in the slices of the RSS scan that reads them. The first open
// resolves every term into fresh slices. A later one — a nested loop's
// inner scan re-opening for the next outer row, or any scan of a subquery
// block re-opening for the next evaluation — re-resolves, in place, every
// term but the constants: parameters bound from the outer row or from the
// correlation values, and subquery results, which the Section 6 cache
// returns without re-evaluating while their correlation values hold.
// Constants and lifted literals — host variables among them — hold for the
// operator's whole life, which is one run of its statement.

// resolveTerm resolves b into dst, unless a re-open finds it still holds.
func (ctx *blockCtx) resolveTerm(first bool, dst *value.Value, b sem.Bound) error {
	if !first && b.Kind == sem.BoundConst {
		return nil
	}
	v, err := ctx.resolveBound(nil, b)
	*dst = v
	return err
}

// resolveKeys resolves start or stop key bounds into *dst and reports
// whether one is NULL, which no key matches.
func (ctx *blockCtx) resolveKeys(first bool, dst *[]value.Value, bs []sem.Bound) (null bool, err error) {
	if first {
		*dst = make([]value.Value, len(bs))
	}
	for i, b := range bs {
		if err := ctx.resolveTerm(first, &(*dst)[i], b); err != nil {
			return false, err
		}
		null = null || (*dst)[i].IsNull()
	}
	return null, nil
}

// resolveSargs resolves search arguments into *dst.
func (ctx *blockCtx) resolveSargs(first bool, dst *rss.SargSet, sargs []sem.SargDNF) error {
	if first {
		*dst = make(rss.SargSet, len(sargs))
	}
	for i, dnf := range sargs {
		if first {
			(*dst)[i].Disjuncts = make([][]rss.SargTerm, len(dnf))
		}
		for j, conj := range dnf {
			if first {
				(*dst)[i].Disjuncts[j] = make([]rss.SargTerm, len(conj))
			}
			terms := (*dst)[i].Disjuncts[j]
			for k, t := range conj {
				terms[k].Col, terms[k].Op = t.Col.Col, t.Op
				if err := ctx.resolveTerm(first, &terms[k].Val, t.Val); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// With the stage inline, each scan operator fits the 1 KB allocation size
// class, whose limit for a pointerful object is 1,016 bytes (1,024 less Go's
// 8-byte malloc header). TestScanOpsFitSizeClass pins it.
type segScanOp struct {
	ctx    *blockCtx
	node   *plan.SegScan
	scan   rss.SegmentScan
	opened bool
	tid    storage.TID
	stage  scanStage
}

// open resolves the scan's SARGs (only the join-bound terms on a re-open)
// and opens the RSS scan, which the operator keeps for its life.
func (it *segScanOp) open() error {
	s, rt := &it.scan, it.ctx.rt
	if err := it.ctx.resolveSargs(!it.opened, &s.Sargs, it.node.Sargs); err != nil {
		return err
	}
	it.opened = true
	s.Table, s.Pool, s.Stmt = it.node.Table, rt.Pool, rt.IO
	s.Budget, s.Snap, s.Strings = rt.Budget, rt.Snap, &it.ctx.strs
	return s.Open()
}

// nextBatch fills b with qualifying rows through the stage (see the file
// comment). The scan keeps its own per-tuple governor checkpoint.
func (it *segScanOp) nextBatch(b *Batch) error {
	st := &it.stage
	st.reset()
	for st.rows() < b.Cap() {
		st.room(b, it.node, len(it.node.Table.Columns))
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
	ctx    *blockCtx
	node   *plan.IndexScan
	scan   rss.IndexScan
	opened bool
	empty  bool
	tid    storage.TID
	stage  scanStage
}

// open is segScanOp.open for index scans, whose RSS scan also keeps its
// B-tree iterator across re-opens. A NULL key bound can match nothing
// (comparisons with NULL are false): the scan is empty.
func (it *indexScanOp) open() error {
	first, s := !it.opened, &it.scan
	nullLo, err := it.ctx.resolveKeys(first, &s.Lo, it.node.Lo)
	if err != nil {
		return err
	}
	nullHi, err := it.ctx.resolveKeys(first, &s.Hi, it.node.Hi)
	if err != nil {
		return err
	}
	if err := it.ctx.resolveSargs(first, &s.Sargs, it.node.Sargs); err != nil {
		return err
	}
	it.opened = true
	it.empty = nullLo || nullHi
	if it.empty {
		return nil
	}
	rt := it.ctx.rt
	s.Index, s.Pool, s.Stmt = it.node.Index, rt.Pool, rt.IO
	s.LoInc, s.HiInc = it.node.LoInc, it.node.HiInc
	s.Budget, s.Snap, s.Strings = rt.Budget, rt.Snap, &it.ctx.strs
	return s.Open()
}

// nextBatch is the segment scan's batch fill for index scans.
func (it *indexScanOp) nextBatch(b *Batch) error {
	if it.empty {
		return nil
	}
	st := &it.stage
	st.reset()
	for st.rows() < b.Cap() {
		st.room(b, it.node, len(it.node.Index.Table.Columns))
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
