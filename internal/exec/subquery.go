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

import (
	"fmt"

	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// subState caches one subquery's latest evaluation.
type subState struct {
	sp      *plan.SubPlan
	valid   bool
	lastKey []value.Value // correlation parameter values at last evaluation
	scalar  value.Value
	set     map[string]bool
	evals   int
	fetches int64 // statement-local page fetches spent across evaluations
}

// bindChildParams computes the child block's correlation parameter values
// from the current composite row and this block's own parameters.
func (ctx *blockCtx) bindChildParams(c comp, sub *sem.Subquery, n int) ([]value.Value, error) {
	params := make([]value.Value, n)
	for _, cr := range sub.Block.CorrelRefs {
		var v value.Value
		if cr.FromParam {
			if cr.ParentParam >= len(ctx.params) {
				return nil, fmt.Errorf("exec: correlation parameter $%d out of range", cr.ParentParam)
			}
			v = ctx.params[cr.ParentParam]
		} else {
			if c == nil || cr.FromCol.Rel >= len(c) || c[cr.FromCol.Rel] == nil {
				return nil, fmt.Errorf("exec: correlation column %d.%d unavailable", cr.FromCol.Rel, cr.FromCol.Col)
			}
			v = c[cr.FromCol.Rel][cr.FromCol.Col]
		}
		params[cr.ParamID] = v
	}
	return params, nil
}

func sameKey(a, b []value.Value, n int) bool {
	if a == nil {
		return false
	}
	for i := 0; i < n; i++ {
		if value.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// evaluate runs the subquery if its correlation values changed since the
// last evaluation (always runs the first time).
func (ctx *blockCtx) evaluate(c comp, sub *sem.Subquery) (*subState, error) {
	st, ok := ctx.subs[sub]
	if !ok {
		return nil, fmt.Errorf("exec: subquery #%d has no plan", sub.ID)
	}
	n := sub.Block.NumParams
	childParams, err := ctx.bindChildParams(c, sub, st.sp.Query.NumParams)
	if err != nil {
		return nil, err
	}
	if st.valid && sameKey(st.lastKey, childParams, n) {
		return st, nil
	}
	child := newBlockCtx(ctx.rt, st.sp.Query, ctx.evals)
	// The subquery-fetch tracker is shared down the nesting so every level's
	// operator attribution excludes the same evaluations.
	child.subFetches = ctx.subFetches
	sub0 := *ctx.subFetches
	f0 := ctx.fetchCount()
	copy(child.params, childParams)
	rows, err := child.run()
	// Everything this evaluation fetched — nested sub-subqueries included —
	// belongs to the subquery's block: exclude it from the enclosing
	// operator's delta exactly once (overwrite, don't add, so fetches a
	// nested evaluation already registered are not counted twice).
	delta := ctx.fetchCount() - f0
	*ctx.subFetches = sub0 + delta
	st.fetches += delta
	if err != nil {
		return nil, err
	}
	st.evals++
	if ctx.evals != nil {
		*ctx.evals++
	}
	st.valid = true
	st.lastKey = childParams
	if sub.Scalar {
		switch len(rows) {
		case 0:
			st.scalar = value.Null()
		case 1:
			st.scalar = rows[0][0]
		default:
			return nil, fmt.Errorf("exec: scalar subquery #%d returned %d rows", sub.ID, len(rows))
		}
	} else {
		st.set = make(map[string]bool, len(rows))
		var key []byte
		for _, r := range rows {
			key = storage.AppendEncodedRow(key[:0], value.Row{r[0]})
			st.set[string(key)] = true
		}
	}
	return st, nil
}

// subScalar returns the single value of a scalar subquery.
func (ctx *blockCtx) subScalar(c comp, sub *sem.Subquery) (value.Value, error) {
	st, err := ctx.evaluate(c, sub)
	if err != nil {
		return value.Value{}, err
	}
	return st.scalar, nil
}

// subSet returns the membership set of an IN subquery.
func (ctx *blockCtx) subSet(c comp, sub *sem.Subquery) (map[string]bool, error) {
	st, err := ctx.evaluate(c, sub)
	if err != nil {
		return nil, err
	}
	return st.set, nil
}
