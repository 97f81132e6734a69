package exec

// Output-stage operators: projection, aggregation (GROUP BY on ordered
// input), and duplicate elimination. They emit final output rows as
// single-slot composites (unwrapped by outRow) so they share the one Operator
// interface with the relational operators below them.

import (
	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// projectOp evaluates the block's output expressions per composite row.
type projectOp struct {
	ctx   *blockCtx
	input *op
	exprs []sem.Expr
	read  *batchReader
}

func (it *projectOp) open() error {
	if err := it.input.Open(); err != nil {
		return err
	}
	it.read = it.ctx.reader(it.read, it.input)
	return nil
}

// nextBatch projects a batch at a time. Output rows and their single-slot
// composites come from fresh arenas, never written again, because the block
// driver, cursors and DML targets keep the rows: sized for the rows left in
// the input's current batch, and allocated on the first row so
// the end-of-input call allocates nothing; b reserves room for as many.
func (it *projectOp) nextBatch(b *Batch) error {
	ne := len(it.exprs)
	var rowArena []value.Value
	var compArena []value.Row
	for !b.Full() {
		c, ok, err := it.read.next()
		if err != nil || !ok {
			return err
		}
		if len(compArena) == 0 {
			n := min(it.read.buffered()+1, b.Cap()-b.Len())
			rowArena = make([]value.Value, n*ne)
			compArena = make([]value.Row, n)
			b.grow(n)
		}
		out := value.Row(rowArena[:ne:ne])
		rowArena = rowArena[ne:]
		for i, e := range it.exprs {
			v, err := it.ctx.evalExpr(c, e)
			if err != nil {
				return err
			}
			out[i] = v
		}
		oc := comp(compArena[:1:1])
		compArena = compArena[1:]
		oc[0] = out
		b.Append(oc)
	}
	return nil
}

func (it *projectOp) close() error { return it.input.Close() }

// groupAggOp aggregates input already ordered on the grouping columns,
// emitting one output row per group (or exactly one row for a scalar
// aggregate over the whole input). It allocates per output batch, not per
// group: the aggregate states and their finished values are reset in place,
// and output rows and their single-slot composites are carved from chunks
// that double, up to the batch target, from one row, so a scalar aggregate
// allocates for one row. Its output rows are fresh, never written again:
// drained queries, cursors and DML targets keep them.
type groupAggOp struct {
	ctx   *blockCtx
	input *op
	node  *plan.GroupAgg
	read  *batchReader

	// rep is a copy of the group's first row, its values in repVals: its
	// grouping columns are the group key.
	rep     comp
	repVals value.Row
	started bool
	done    bool
	states  []aggState
	aggVals []value.Value // the finished group's aggregate values

	rowArena  []value.Value
	compArena []value.Row
	chunk     int // rows in the last output chunk
}

func (it *groupAggOp) open() error {
	it.started, it.done = false, false
	if err := it.input.Open(); err != nil {
		return err
	}
	it.read = it.ctx.reader(it.read, it.input)
	return nil
}

func (it *groupAggOp) nextBatch(b *Batch) error { return fillRows(b, it) }

// sameGroup compares c's grouping columns with the current group's in
// place: no key is built per row.
func (it *groupAggOp) sameGroup(c comp) bool {
	for _, g := range it.node.GroupCols {
		if value.Compare(c[g.Rel][g.Col], it.rep[g.Rel][g.Col]) != 0 {
			return false
		}
	}
	return true
}

// startGroup makes a copy of c the representative of a new group and
// resets the aggregate states. The group can outlive c's batch, and one
// representative is kept at a time, so the copy reuses rep and repVals.
func (it *groupAggOp) startGroup(c comp) {
	if it.rep == nil {
		it.rep = make(comp, len(c))
	}
	it.repVals = it.repVals[:0]
	copyComp(&it.repVals, it.rep, c)
	it.resetStates()
}

// resetStates starts every aggregate afresh, in states allocated once.
func (it *groupAggOp) resetStates() {
	if it.states == nil {
		it.states = make([]aggState, len(it.node.Aggs))
		it.aggVals = make([]value.Value, len(it.node.Aggs))
	}
	for i, a := range it.node.Aggs {
		it.states[i] = aggState{star: a.Star}
	}
}

func (it *groupAggOp) next() (comp, bool, error) {
	if it.done {
		return nil, false, nil
	}
	for {
		c, ok, err := it.read.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			it.done = true
			if !it.started {
				if len(it.node.GroupCols) > 0 {
					return nil, false, nil // no input → no groups
				}
				// Scalar aggregate over empty input: one row (COUNT = 0,
				// SUM/AVG/MIN/MAX = NULL) — unless HAVING filters it.
				it.resetStates()
				return it.emit(make(comp, it.ctx.numRels()))
			}
			return it.emit(it.rep)
		}
		if !it.started {
			it.started = true
			it.startGroup(c)
		} else if !it.sameGroup(c) {
			// Group boundary: emit the finished group (unless HAVING
			// filters it), start the next with c.
			out, keep, err := it.emit(it.rep)
			if err != nil {
				return nil, false, err
			}
			it.startGroup(c)
			if err := it.accumulate(c); err != nil {
				return nil, false, err
			}
			if keep {
				return out, true, nil
			}
			continue
		}
		if err := it.accumulate(c); err != nil {
			return nil, false, err
		}
	}
}

func (it *groupAggOp) accumulate(c comp) error {
	for i, a := range it.node.Aggs {
		if a.Star {
			it.states[i].addRow()
			continue
		}
		v, err := it.ctx.evalExpr(c, a.Arg)
		if err != nil {
			return err
		}
		it.states[i].addValue(v)
	}
	return nil
}

// emit finalizes the current group: HAVING conjuncts filter it (ok=false),
// otherwise the block's output expressions are evaluated over the group's
// representative composite and the aggregate results into a row carved
// from the output chunks, returned as a single-slot composite.
func (it *groupAggOp) emit(rep comp) (comp, bool, error) {
	for i := range it.states {
		it.aggVals[i] = it.states[i].finish(it.node.Aggs[i].Name)
	}
	it.ctx.aggVals = it.aggVals
	defer func() { it.ctx.aggVals = nil }()
	for _, h := range it.node.Having {
		ok, err := it.ctx.evalBool(rep, h)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
	}
	ne := len(it.node.OutExprs)
	if len(it.compArena) == 0 {
		it.chunk = min(max(2*it.chunk, 1), it.ctx.batchN())
		it.rowArena = make([]value.Value, it.chunk*ne)
		it.compArena = make([]value.Row, it.chunk)
	}
	out := value.Row(it.rowArena[:ne:ne])
	it.rowArena = it.rowArena[ne:]
	oc := comp(it.compArena[:1:1])
	it.compArena = it.compArena[1:]
	for i, e := range it.node.OutExprs {
		v, err := it.ctx.evalExpr(rep, e)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	oc[0] = out
	return oc, true, nil
}

func (it *groupAggOp) close() error { return it.input.Close() }

// aggState accumulates one aggregate over one group.
type aggState struct {
	star     bool  // COUNT(*): counts rows, not values
	rows     int64 // all rows
	count    int64 // non-NULL inputs
	sumI     int64
	sumFloat float64
	isFloat  bool
	min, max value.Value
}

func (s *aggState) addRow() { s.rows++ }

func (s *aggState) addValue(v value.Value) {
	s.rows++
	if v.IsNull() {
		return
	}
	s.count++
	switch v.Kind {
	case value.KindInt:
		s.sumI += v.Int
		s.sumFloat += float64(v.Int)
	case value.KindFloat:
		s.isFloat = true
		s.sumFloat += v.Float
	}
	if s.count == 1 {
		s.min, s.max = v, v
		return
	}
	if value.Compare(v, s.min) < 0 {
		s.min = v
	}
	if value.Compare(v, s.max) > 0 {
		s.max = v
	}
}

func (s *aggState) finish(name string) value.Value {
	switch name {
	case "COUNT":
		// COUNT(*) counts rows; COUNT(expr) counts non-NULL values.
		if s.star {
			return value.NewInt(s.rows)
		}
		return value.NewInt(s.count)
	case "SUM":
		if s.count == 0 {
			return value.Null()
		}
		if s.isFloat {
			return value.NewFloat(s.sumFloat)
		}
		return value.NewInt(s.sumI)
	case "AVG":
		if s.count == 0 {
			return value.Null()
		}
		return value.NewFloat(s.sumFloat / float64(s.count))
	case "MIN":
		if s.count == 0 {
			return value.Null()
		}
		return s.min
	case "MAX":
		if s.count == 0 {
			return value.Null()
		}
		return s.max
	default:
		return value.Null()
	}
}

// distinctOp removes duplicate output rows. It hashes encoded rows and
// preserves input order; see DESIGN.md for the deviation from System R's
// sort-based duplicate elimination.
type distinctOp struct {
	ctx   *blockCtx
	input *op
	seen  map[string]bool
	key   []byte // reused encoding buffer: only a new row allocates its key
	read  *batchReader
}

func (it *distinctOp) open() error {
	it.seen = make(map[string]bool)
	if err := it.input.Open(); err != nil {
		return err
	}
	it.read = it.ctx.reader(it.read, it.input)
	return nil
}

func (it *distinctOp) next() (comp, bool, error) {
	for {
		c, ok, err := it.read.next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.key = storage.AppendEncodedRow(it.key[:0], outRow(c))
		if it.seen[string(it.key)] {
			continue
		}
		it.seen[string(it.key)] = true
		return c, true, nil
	}
}

func (it *distinctOp) nextBatch(b *Batch) error { return fillRows(b, it) }

func (it *distinctOp) close() error { return it.input.Close() }
