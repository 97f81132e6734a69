package exec

// Tuple location for DELETE and UPDATE: "Retrieval for data manipulation
// (UPDATE, DELETE) is treated similarly" (Section 1). The statement is
// analyzed as the single-relation block SELECT *, <SET values> FROM t WHERE
// ... (sem.AnalyzeLifted), so the optimizer's chosen access path (index probe
// or segment scan, with SARGs) locates the affected tuples and one operator
// tree yields each one's stored image and new values. The block runs through
// the same Cursor as a query, stepped a row at a time. Targets are fully
// collected before any mutation, which also avoids re-visiting tuples the
// statement itself moves (the Halloween problem).

import (
	"fmt"

	"systemr/internal/plan"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// Target is one tuple a DELETE or UPDATE affects.
type Target struct {
	TID  storage.TID
	Row  value.Row     // the stored image
	Sets []value.Value // the SET values in SET order; empty for DELETE
}

// CollectTargets runs a planned DML block to completion, binding the
// statement's arguments args as RunQuery does, and returns its targets and
// the subquery evaluations the run made. It sets rt.BatchSize to 1 and steps
// the block's cursor: every fill below the root holds one row, so after each
// fetch the access path's last TID names the row just projected. The scan
// goes through the same instrumented, governor-checked boundary as query
// execution.
func CollectTargets(rt *Runtime, q *plan.Query, args []value.Value) (ts []Target, evals int, err error) {
	rt.BatchSize = 1
	c, err := OpenQuery(rt, q, args)
	if err != nil {
		return nil, 0, err
	}
	// Next closes the cursor at the end and on error; this Close covers the
	// other exits, panics included.
	defer func() {
		if cerr := c.Close(); cerr != nil && err == nil {
			ts, err = nil, cerr
		}
	}()
	src, ok := c.root.kids[0].impl.(tidSource)
	if !ok {
		return nil, 0, fmt.Errorf("exec: DML access path %T does not expose TIDs", c.root.kids[0].impl)
	}
	n := len(q.Block.Rels[0].Table.Columns)
	for {
		row, ok, err := c.Next()
		if err != nil || !ok {
			return ts, c.stats.SubqueryEvals, err
		}
		ts = append(ts, Target{TID: src.lastTID(), Row: row[:n:n], Sets: row[n:]})
	}
}
