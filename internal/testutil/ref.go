// Package testutil contains a brute-force reference query evaluator used for
// differential testing: every plan the optimizer chooses — under any
// configuration ablation — must return the same multiset of rows as this
// evaluator, which shares no code with the executor (it enumerates cross
// products directly from stored pages and re-evaluates subqueries naively).
package testutil

import (
	"fmt"
	"sort"

	"systemr/internal/catalog"
	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// RunBlock evaluates an analyzed query block by brute force.
func RunBlock(disk *storage.Disk, blk *sem.Block) ([]value.Row, error) {
	return runBlock(disk, blk, nil)
}

func runBlock(disk *storage.Disk, blk *sem.Block, params []value.Value) ([]value.Row, error) {
	rc := &refCtx{disk: disk, blk: blk, params: params}

	// Load every relation.
	rels := make([][]value.Row, len(blk.Rels))
	for i, r := range blk.Rels {
		rows, err := loadTable(disk, r)
		if err != nil {
			return nil, err
		}
		rels[i] = rows
	}

	// Enumerate the cross product, keeping composites that satisfy every
	// boolean factor.
	var comps [][]value.Row
	idx := make([]int, len(rels))
	for {
		c := make([]value.Row, len(rels))
		for i := range rels {
			if len(rels[i]) == 0 {
				goto done // empty relation → empty cross product
			}
			c[i] = rels[i][idx[i]]
		}
		{
			ok := true
			for _, f := range blk.Factors {
				v, err := rc.eval(c, f.Expr)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					ok = false
					break
				}
			}
			if ok {
				comps = append(comps, c)
			}
		}
		// Odometer increment.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(rels[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
done:

	if blk.HasAgg {
		return rc.aggregate(comps)
	}

	// ORDER BY on composites, then project, then DISTINCT.
	if len(blk.OrderBy) > 0 {
		sortComps(comps, blk.OrderBy)
	}
	out := make([]value.Row, 0, len(comps))
	for _, c := range comps {
		row, err := rc.project(c, blk.Select)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	if blk.Distinct {
		out = dedupe(out)
	}
	return out, nil
}

func loadTable(disk *storage.Disk, r *sem.RelRef) ([]value.Row, error) {
	var rows []value.Row
	err := HeapRows(disk)(r.Table, func(row value.Row, _ storage.TID) error {
		rows = append(rows, row) // HeapRows decodes each row afresh
		return nil
	})
	return rows, err
}

// HeapRows is the reference catalog.RowSource: it walks a table's pages
// straight off the disk, sharing no code with the RSS scans, and hands on
// every version no delete mark has retired — the rows any reader sees once
// every writer has finished. Package tests build indexes and statistics
// from it, and oracles compare what the engine's scans feed the catalog
// with it.
func HeapRows(disk *storage.Disk) catalog.RowSource {
	return func(t *catalog.Table, visit func(value.Row, storage.TID) error) error {
		for _, pid := range t.Segment.Pages() {
			page := disk.Page(pid)
			for s := uint16(0); s < page.NumSlots(); s++ {
				rec, rel, ok := page.Record(s)
				if !ok || rel != t.ID {
					continue
				}
				h, body, err := storage.ParseVersionHeader(rec)
				if err != nil {
					return err
				}
				if h.Xmax != 0 {
					continue // dead version awaiting vacuum
				}
				row, err := storage.DecodeRow(body)
				if err != nil {
					return err
				}
				if err := visit(row, storage.TID{Page: pid, Slot: s}); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func sortComps(comps [][]value.Row, keys []sem.OrderKey) {
	sort.SliceStable(comps, func(i, j int) bool {
		for _, k := range keys {
			cmp := value.Compare(comps[i][k.Col.Rel][k.Col.Col], comps[j][k.Col.Rel][k.Col.Col])
			if k.Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}

func dedupe(rows []value.Row) []value.Row {
	seen := map[string]bool{}
	out := rows[:0]
	for _, r := range rows {
		k := string(storage.EncodeRow(r))
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// refCtx evaluates expressions independently of the executor.
type refCtx struct {
	disk    *storage.Disk
	blk     *sem.Block
	params  []value.Value
	aggVals []value.Value
}

func (rc *refCtx) project(c []value.Row, exprs []sem.Expr) (value.Row, error) {
	out := make(value.Row, len(exprs))
	for i, e := range exprs {
		v, err := rc.eval(c, e)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// aggregate groups the qualifying composites and evaluates the aggregated
// SELECT list per group.
func (rc *refCtx) aggregate(comps [][]value.Row) ([]value.Row, error) {
	blk := rc.blk
	type group struct {
		rep   []value.Row
		items [][]value.Row
	}
	var order []string
	groups := map[string]*group{}
	for _, c := range comps {
		key := make(value.Row, len(blk.GroupBy))
		for i, g := range blk.GroupBy {
			key[i] = c[g.Rel][g.Col]
		}
		k := string(storage.EncodeRow(key))
		g, ok := groups[k]
		if !ok {
			g = &group{rep: c}
			groups[k] = g
			order = append(order, k)
		}
		g.items = append(g.items, c)
	}
	if len(blk.GroupBy) == 0 && len(groups) == 0 {
		// Scalar aggregate over empty input: one all-empty group.
		groups[""] = &group{rep: make([]value.Row, len(blk.Rels))}
		order = append(order, "")
	}

	var out []value.Row
	var reps [][]value.Row
	for _, k := range order {
		g := groups[k]
		aggVals := make([]value.Value, len(blk.Aggs))
		for ai, a := range blk.Aggs {
			v, err := rc.aggValue(a, g.items)
			if err != nil {
				return nil, err
			}
			aggVals[ai] = v
		}
		rc.aggVals = aggVals
		keep := true
		for _, h := range blk.Having {
			v, err := rc.eval(g.rep, h)
			if err != nil {
				rc.aggVals = nil
				return nil, err
			}
			if !truthy(v) {
				keep = false
				break
			}
		}
		if !keep {
			rc.aggVals = nil
			continue
		}
		row, err := rc.project(g.rep, blk.Select)
		rc.aggVals = nil
		if err != nil {
			return nil, err
		}
		out = append(out, row)
		reps = append(reps, g.rep)
	}

	if len(blk.OrderBy) > 0 {
		type pair struct {
			rep []value.Row
			row value.Row
		}
		pairs := make([]pair, len(out))
		for i := range out {
			pairs[i] = pair{rep: reps[i], row: out[i]}
		}
		sort.SliceStable(pairs, func(i, j int) bool {
			for _, k := range blk.OrderBy {
				cmp := value.Compare(pairs[i].rep[k.Col.Rel][k.Col.Col], pairs[j].rep[k.Col.Rel][k.Col.Col])
				if k.Desc {
					cmp = -cmp
				}
				if cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
		for i := range pairs {
			out[i] = pairs[i].row
		}
	}
	if blk.Distinct {
		out = dedupe(out)
	}
	return out, nil
}

func (rc *refCtx) aggValue(a *sem.Agg, items [][]value.Row) (value.Value, error) {
	if a.Star {
		return value.NewInt(int64(len(items))), nil
	}
	var vals []value.Value
	for _, c := range items {
		v, err := rc.eval(c, a.Arg)
		if err != nil {
			return value.Value{}, err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	switch a.Name {
	case "COUNT":
		return value.NewInt(int64(len(vals))), nil
	case "SUM":
		if len(vals) == 0 {
			return value.Null(), nil
		}
		isFloat := false
		var si int64
		var sf float64
		for _, v := range vals {
			if v.Kind == value.KindFloat {
				isFloat = true
			}
			si += v.Int
			sf += v.AsFloat()
		}
		if isFloat {
			return value.NewFloat(sf), nil
		}
		return value.NewInt(si), nil
	case "AVG":
		if len(vals) == 0 {
			return value.Null(), nil
		}
		var sf float64
		for _, v := range vals {
			sf += v.AsFloat()
		}
		return value.NewFloat(sf / float64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return value.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			cmp := value.Compare(v, best)
			if (a.Name == "MIN" && cmp < 0) || (a.Name == "MAX" && cmp > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return value.Value{}, fmt.Errorf("testutil: unknown aggregate %s", a.Name)
	}
}

func truthy(v value.Value) bool {
	switch v.Kind {
	case value.KindInt:
		return v.Int != 0
	case value.KindFloat:
		return v.Float != 0
	default:
		return false
	}
}

func boolVal(b bool) value.Value {
	if b {
		return value.NewInt(1)
	}
	return value.NewInt(0)
}

func (rc *refCtx) eval(c []value.Row, e sem.Expr) (value.Value, error) {
	switch x := e.(type) {
	case *sem.Col:
		return c[x.ID.Rel][x.ID.Col], nil
	case *sem.Const:
		return x.Val, nil
	case *sem.Param:
		if x.ID >= len(rc.params) {
			return value.Value{}, fmt.Errorf("testutil: parameter $%d unbound", x.ID)
		}
		return rc.params[x.ID], nil
	case *sem.AggRef:
		return rc.aggVals[x.Idx], nil
	case *sem.Bin:
		switch x.Op {
		case sem.OpAnd, sem.OpOr:
			l, err := rc.eval(c, x.L)
			if err != nil {
				return value.Value{}, err
			}
			r, err := rc.eval(c, x.R)
			if err != nil {
				return value.Value{}, err
			}
			if x.Op == sem.OpAnd {
				return boolVal(truthy(l) && truthy(r)), nil
			}
			return boolVal(truthy(l) || truthy(r)), nil
		}
		l, err := rc.eval(c, x.L)
		if err != nil {
			return value.Value{}, err
		}
		r, err := rc.eval(c, x.R)
		if err != nil {
			return value.Value{}, err
		}
		if x.Op.IsComparison() {
			return boolVal(x.Op.CmpOp().Apply(l, r)), nil
		}
		switch x.Op {
		case sem.OpAdd:
			return value.Arith('+', l, r), nil
		case sem.OpSub:
			return value.Arith('-', l, r), nil
		case sem.OpMul:
			return value.Arith('*', l, r), nil
		case sem.OpDiv:
			return value.Arith('/', l, r), nil
		}
		return value.Value{}, fmt.Errorf("testutil: bad operator %v", x.Op)
	case *sem.Not:
		v, err := rc.eval(c, x.E)
		if err != nil {
			return value.Value{}, err
		}
		return boolVal(!truthy(v)), nil
	case *sem.Neg:
		v, err := rc.eval(c, x.E)
		if err != nil {
			return value.Value{}, err
		}
		return value.Arith('-', value.NewInt(0), v), nil
	case *sem.Between:
		v, err := rc.eval(c, x.E)
		if err != nil {
			return value.Value{}, err
		}
		lo, err := rc.eval(c, x.Lo)
		if err != nil {
			return value.Value{}, err
		}
		hi, err := rc.eval(c, x.Hi)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return boolVal(false), nil
		}
		in := value.OpGe.Apply(v, lo) && value.OpLe.Apply(v, hi)
		if x.Negated {
			return boolVal(!in), nil
		}
		return boolVal(in), nil
	case *sem.InList:
		v, err := rc.eval(c, x.E)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			return boolVal(false), nil
		}
		found := false
		for _, le := range x.List {
			lv, err := rc.eval(c, le)
			if err != nil {
				return value.Value{}, err
			}
			if value.OpEq.Apply(v, lv) {
				found = true
				break
			}
		}
		if x.Negated {
			return boolVal(!found), nil
		}
		return boolVal(found), nil
	case *sem.InSub:
		v, err := rc.eval(c, x.E)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			return boolVal(false), nil
		}
		rows, err := rc.runSub(c, x.Sub)
		if err != nil {
			return value.Value{}, err
		}
		found := false
		for _, r := range rows {
			if value.OpEq.Apply(v, r[0]) {
				found = true
				break
			}
		}
		if x.Negated {
			return boolVal(!found), nil
		}
		return boolVal(found), nil
	case *sem.ScalarSub:
		rows, err := rc.runSub(c, x.Sub)
		if err != nil {
			return value.Value{}, err
		}
		switch len(rows) {
		case 0:
			return value.Null(), nil
		case 1:
			return rows[0][0], nil
		default:
			return value.Value{}, fmt.Errorf("testutil: scalar subquery returned %d rows", len(rows))
		}
	default:
		return value.Value{}, fmt.Errorf("testutil: unsupported expression %T", e)
	}
}

// runSub evaluates a subquery with correlation values drawn from the current
// composite — naively, with no caching.
func (rc *refCtx) runSub(c []value.Row, sub *sem.Subquery) ([]value.Row, error) {
	childParams := make([]value.Value, sub.Block.NumParams)
	for _, cr := range sub.Block.CorrelRefs {
		if cr.FromParam {
			childParams[cr.ParamID] = rc.params[cr.ParentParam]
		} else {
			childParams[cr.ParamID] = c[cr.FromCol.Rel][cr.FromCol.Col]
		}
	}
	return runBlock(rc.disk, sub.Block, childParams)
}

// SortedKey canonicalizes a result multiset for comparison: the encoded rows,
// sorted.
func SortedKey(rows []value.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = string(storage.EncodeRow(r))
	}
	sort.Strings(keys)
	return keys
}

// SameMultiset reports whether two results contain the same rows with the
// same multiplicities (ignoring order).
func SameMultiset(a, b []value.Row) bool {
	ka, kb := SortedKey(a), SortedKey(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
