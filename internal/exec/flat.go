package exec

// Output-stage operators: projection, aggregation (GROUP BY on ordered
// input), and duplicate elimination. They emit final output rows as
// single-slot composites (outComp/outRow) so they share the one Operator
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

// nextBatch projects a batch at a time, allocating output rows and their
// single-slot composites from per-call arenas (consumers may retain rows),
// allocated on the first row so the end-of-input call allocates nothing.
func (it *projectOp) nextBatch(b *Batch) error {
	ne := len(it.exprs)
	var rowArena []value.Value
	var compArena []value.Row
	for !b.Full() {
		c, ok, err := it.read.next()
		if err != nil || !ok {
			return err
		}
		if compArena == nil {
			rowArena = make([]value.Value, b.Cap()*ne)
			compArena = make([]value.Row, b.Cap())
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
// aggregate over the whole input).
type groupAggOp struct {
	ctx   *blockCtx
	input *op
	node  *plan.GroupAgg

	curKey  value.Row
	curRep  comp // representative composite for group-column output values
	states  []aggState
	started bool
	done    bool
	pending comp // lookahead row belonging to the next group
	read    *batchReader
}

func (it *groupAggOp) open() error {
	it.curKey, it.curRep, it.states = nil, nil, nil
	it.started, it.done = false, false
	it.pending = nil
	if err := it.input.Open(); err != nil {
		return err
	}
	it.read = it.ctx.reader(it.read, it.input)
	return nil
}

func (it *groupAggOp) nextBatch(b *Batch) error { return fillRows(b, it) }

func (it *groupAggOp) groupKey(c comp) value.Row {
	key := make(value.Row, len(it.node.GroupCols))
	for i, g := range it.node.GroupCols {
		key[i] = c[g.Rel][g.Col]
	}
	return key
}

func (it *groupAggOp) next() (comp, bool, error) {
	if it.done {
		return nil, false, nil
	}
	for {
		var c comp
		var ok bool
		var err error
		if it.pending != nil {
			c, ok = it.pending, true
			it.pending = nil
		} else {
			c, ok, err = it.read.next()
			if err != nil {
				return nil, false, err
			}
		}
		if !ok {
			it.done = true
			if !it.started {
				if len(it.node.GroupCols) > 0 {
					return nil, false, nil // no input → no groups
				}
				// Scalar aggregate over empty input: one row (COUNT = 0,
				// SUM/AVG/MIN/MAX = NULL) — unless HAVING filters it.
				it.states = newAggStates(it.node.Aggs)
				row, keep, err := it.emit(make(comp, it.ctx.numRels()))
				if err != nil || !keep {
					return nil, false, err
				}
				return outComp(row), true, nil
			}
			row, keep, err := it.emit(it.curRep)
			if err != nil || !keep {
				return nil, false, err
			}
			return outComp(row), true, nil
		}
		if !it.started {
			it.started = true
			it.curKey = it.groupKey(c)
			it.curRep = c
			it.states = newAggStates(it.node.Aggs)
		} else if len(it.node.GroupCols) > 0 {
			key := it.groupKey(c)
			if value.CompareKey(key, it.curKey) != 0 {
				// Group boundary: emit the finished group (unless HAVING
				// filters it), start the next.
				row, keep, err := it.emit(it.curRep)
				if err != nil {
					return nil, false, err
				}
				it.curKey = key
				it.curRep = c
				it.states = newAggStates(it.node.Aggs)
				it.pending = c
				if err := it.accumulatePending(); err != nil {
					return nil, false, err
				}
				if keep {
					return outComp(row), true, nil
				}
				continue
			}
		}
		if err := it.accumulate(c); err != nil {
			return nil, false, err
		}
	}
}

// accumulatePending folds the lookahead row (first of the new group) into
// the fresh aggregate states.
func (it *groupAggOp) accumulatePending() error {
	c := it.pending
	it.pending = nil
	return it.accumulate(c)
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
// representative composite and the aggregate results.
func (it *groupAggOp) emit(rep comp) (value.Row, bool, error) {
	aggVals := make([]value.Value, len(it.states))
	for i := range it.states {
		aggVals[i] = it.states[i].finish(it.node.Aggs[i].Name)
	}
	it.ctx.aggVals = aggVals
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
	out := make(value.Row, len(it.node.OutExprs))
	for i, e := range it.node.OutExprs {
		v, err := it.ctx.evalExpr(rep, e)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
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

func newAggStates(aggs []*sem.Agg) []aggState {
	states := make([]aggState, len(aggs))
	for i, a := range aggs {
		states[i].star = a.Star
	}
	return states
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
		key := string(storage.EncodeRow(outRow(c)))
		if it.seen[key] {
			continue
		}
		it.seen[key] = true
		return c, true, nil
	}
}

func (it *distinctOp) nextBatch(b *Batch) error { return fillRows(b, it) }

func (it *distinctOp) close() error { return it.input.Close() }
