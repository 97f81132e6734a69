package sem

// Analysis of data-manipulation statements. "Retrieval for data manipulation
// (UPDATE, DELETE) is treated similarly" (Section 1): a DELETE or UPDATE is
// analyzed as the single-relation query block
//
//	SELECT *, <SET right-hand sides> FROM t WHERE ...
//
// so the same access path selection locates the affected tuples, and one
// operator tree yields each target's stored image followed by its new values.

import (
	"fmt"
	"slices"

	"systemr/internal/sql"
	"systemr/internal/value"
)

// analyzeDML analyzes a DELETE (the case with no SET list) or an UPDATE. It
// returns the block and, for each SET value the block outputs after the
// relation's columns, the column that value is stored in. Whether a
// statement is valid must not depend on the rows it matches, so a SET value
// whose static type its column cannot store is rejected here.
func (a *analyzer) analyzeDML(st sql.Statement) (*Block, []int, error) {
	sel := &sql.SelectStmt{Items: []sql.SelectItem{{Star: true}}}
	var sets []sql.SetClause
	switch x := st.(type) {
	case *sql.DeleteStmt:
		sel.From, sel.Where = []sql.TableRef{{Table: x.Table, Alias: x.Alias}}, x.Where
	case *sql.UpdateStmt:
		sel.From, sel.Where = []sql.TableRef{{Table: x.Table, Alias: x.Alias}}, x.Where
		sets = x.Sets
	default:
		return nil, nil, fmt.Errorf("semantic error: %T is not a SELECT, UPDATE or DELETE", st)
	}
	blk, err := a.analyzeSelect(sel)
	if err != nil {
		return nil, nil, err
	}
	table := blk.Rels[0].Table
	cols := make([]int, 0, len(sets))
	for _, sc := range sets {
		ci := table.ColumnIndex(sc.Column)
		if ci < 0 {
			return nil, nil, fmt.Errorf("semantic error: column %s does not exist in %s", sc.Column, table.Name)
		}
		col := table.Columns[ci]
		if slices.Contains(cols, ci) {
			return nil, nil, fmt.Errorf("semantic error: column %s is assigned more than once", col.Name)
		}
		e, err := a.resolveExpr(sc.Expr, false)
		if err != nil {
			return nil, nil, err
		}
		if !storable(e.Type(), col.Type) {
			return nil, nil, fmt.Errorf("semantic error: cannot store %s %s in %s column %s", e.Type(), e, col.Type, col.Name)
		}
		blk.Select = append(blk.Select, e)
		blk.SelectNames = append(blk.SelectNames, col.Name)
		cols = append(cols, ci)
	}
	return blk, cols, nil
}

// storable reports whether a value of static type t can be stored in a
// column of type col, by the storage layer's rule (rss coerce, which still
// guards every stored value): the same kind, NULL, or INTEGER into FLOAT.
func storable(t, col value.Kind) bool {
	return t == col || t == value.KindNull || t == value.KindInt && col == value.KindFloat
}
