package exec

// Nested query evaluation — Section 6. Non-correlated subqueries are
// evaluated once (on first reference; every later reference reuses the
// result, matching "the subquery needs to be evaluated only once ... before
// the top level query"). Correlated subqueries are re-evaluated per
// candidate tuple of the referencing block — except that the evaluation is
// made conditional on whether the referenced values changed since the
// previous candidate tuple: "if they are the same, the previous evaluation
// result can be used again", which pays off exactly when the referenced
// relation is ordered on the referenced column.
//
// A subquery block is one operator tree per statement run, built with its
// parent's (buildRoot) and re-opened per evaluation, as a nested-loop inner
// is per outer row; its root's Opens count the evaluations.

import (
	"fmt"
	"slices"

	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// subState is one subquery block of a run: its context and operator tree,
// and its latest evaluation's result.
type subState struct {
	ctx     blockCtx
	root    *op
	b       *Batch
	valid   bool
	lastKey []value.Value // correlation parameter values at last evaluation
	scalar  value.Value
	set     map[string]bool
}

// bindChildParams computes the child block's correlation parameter values
// from the current composite row and this block's own parameters, into
// params, which has a slot for each of the child query's parameters.
func (ctx *blockCtx) bindChildParams(params []value.Value, c comp, sub *sem.Subquery) error {
	for _, cr := range sub.Block.CorrelRefs {
		var v value.Value
		if cr.FromParam {
			if cr.ParentParam >= len(ctx.params) {
				return fmt.Errorf("exec: correlation parameter $%d out of range", cr.ParentParam)
			}
			v = ctx.params[cr.ParentParam]
		} else {
			if c == nil || cr.FromCol.Rel >= len(c) || c[cr.FromCol.Rel] == nil {
				return fmt.Errorf("exec: correlation column %d.%d unavailable", cr.FromCol.Rel, cr.FromCol.Col)
			}
			v = c[cr.FromCol.Rel][cr.FromCol.Col]
		}
		params[cr.ParamID] = v
	}
	return nil
}

// evaluate runs the subquery if its correlation values changed since the
// last evaluation (always runs the first time). The values are bound into
// the block's own parameters and compared with a copy of the last
// evaluation's, kept in place, so neither a row that reuses the last result
// nor an evaluation allocates for them.
func (ctx *blockCtx) evaluate(c comp, sub *sem.Subquery) (*subState, error) {
	st, ok := ctx.subs[sub]
	if !ok {
		return nil, fmt.Errorf("exec: subquery #%d has no plan", sub.ID)
	}
	params := st.ctx.params
	if err := ctx.bindChildParams(params, c, sub); err != nil {
		return nil, err
	}
	key := params[:sub.Block.NumParams]
	if st.valid && slices.EqualFunc(st.lastKey, key, func(a, b value.Value) bool { return value.Compare(a, b) == 0 }) {
		return st, nil
	}
	st.valid = false
	st.lastKey = append(st.lastKey[:0], key...)
	// The child block shares the subquery-fetch tracker, so every level's
	// operator attribution excludes the same evaluations.
	sub0 := *ctx.subFetches
	f0 := ctx.fetchCount()
	err := st.run(sub)
	// Everything this evaluation fetched — nested sub-subqueries included —
	// belongs to the subquery's block: exclude it from the enclosing
	// operator's delta exactly once (overwrite, don't add, so fetches a
	// nested evaluation already registered are not counted twice).
	*ctx.subFetches = sub0 + ctx.fetchCount() - f0
	if err != nil {
		return nil, err
	}
	*ctx.evals++
	st.valid = true
	return st, nil
}

// run evaluates the block once into the state's result: it opens the root,
// drains it through the state's batch and closes it, on every path, so no
// scan of the block stays open between evaluations. The block's own
// subqueries start the run unevaluated, as they did when every evaluation
// built its tree afresh.
func (st *subState) run(sub *sem.Subquery) (err error) {
	for _, nested := range st.ctx.subs {
		nested.valid = false
	}
	defer func() {
		if cerr := st.root.Close(); err == nil {
			err = cerr
		}
	}()
	if err := st.root.Open(); err != nil {
		return err
	}
	if st.set == nil && !sub.Scalar {
		st.set = make(map[string]bool)
	}
	clear(st.set)
	st.scalar = value.Null()
	rows := 0
	var key []byte
	err = st.ctx.drain(st.root, st.b, func(out []comp) {
		for _, r := range out {
			rows++
			switch v := outRow(r)[0]; {
			case !sub.Scalar:
				key = storage.AppendEncodedRow(key[:0], value.Row{v})
				st.set[string(key)] = true
			case rows == 1:
				st.scalar = v
			}
		}
	})
	if err == nil && sub.Scalar && rows > 1 {
		err = fmt.Errorf("exec: scalar subquery #%d returned %d rows", sub.ID, rows)
	}
	return err
}

// subScalar returns the single value of a scalar subquery.
func (ctx *blockCtx) subScalar(c comp, sub *sem.Subquery) (value.Value, error) {
	st, err := ctx.evaluate(c, sub)
	if err != nil {
		return value.Value{}, err
	}
	return st.scalar, nil
}
