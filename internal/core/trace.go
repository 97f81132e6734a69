package core

// Search-tree tracing: reproduces the narrative of Figures 2 through 6 of
// the paper — the access paths kept per single relation, the nested-loop and
// merge-scan solutions for each pair of relations, and the extended tree for
// each further relation, with pruned candidates marked.

import (
	"fmt"
	"strings"

	"systemr/internal/sem"
)

// TraceEvent is one recorded step of the search.
type TraceEvent struct {
	Subset sem.RelSet
	Size   int
	Desc   string
	Cost   float64 // weighted total
	Order  string  // produced order, "" if none
	Kept   bool
}

// Trace collects the optimizer's search tree. A nil *Trace disables all
// recording (the methods are nil-safe).
type Trace struct {
	Events []TraceEvent
	blk    *sem.Block
}

func (t *Trace) enterSubset(o *Optimizer, s sem.RelSet) {
	if t == nil {
		return
	}
	t.blk = o.blk
}

func (t *Trace) candidate(o *Optimizer, cand *solution, kept bool) {
	if t == nil {
		return
	}
	t.blk = o.blk
	ordStr := ""
	if len(cand.ord) > 0 {
		parts := make([]string, len(cand.ord))
		for i, el := range cand.ord {
			parts[i] = o.blk.ColName(el.class)
			if el.desc {
				parts[i] += " DESC"
			}
		}
		ordStr = strings.Join(parts, ", ")
	}
	t.Events = append(t.Events, TraceEvent{
		Subset: cand.set,
		Size:   cand.set.Count(),
		Desc:   cand.desc,
		Cost:   cand.total(o.cfg.W),
		Order:  ordStr,
		Kept:   kept,
	})
}

// Render prints the search tree grouped by subset size then subset — the
// textual analog of Figures 2-6: size 1 is the single-relation figure
// (Figs. 2-3), size 2 the pair solutions (Figs. 4-5), size 3 the
// three-relation tree (Fig. 6), and so on.
func (t *Trace) Render() string {
	if t == nil || t.blk == nil {
		return "(no trace)\n"
	}
	var b strings.Builder
	maxSize := 0
	for _, e := range t.Events {
		if e.Size > maxSize {
			maxSize = e.Size
		}
	}
	for size := 1; size <= maxSize; size++ {
		switch size {
		case 1:
			b.WriteString("== Search tree, single relations (cf. Figures 2-3) ==\n")
		case 2:
			b.WriteString("== Search tree, pairs of relations (cf. Figures 4-5) ==\n")
		default:
			fmt.Fprintf(&b, "== Search tree, %d relations (cf. Figure 6) ==\n", size)
		}
		var lastSubset sem.RelSet
		first := true
		for _, e := range t.Events {
			if e.Size != size {
				continue
			}
			if first || e.Subset != lastSubset {
				fmt.Fprintf(&b, "  subset %s:\n", relSetString(t.blk, e.Subset))
				lastSubset = e.Subset
				first = false
			}
			mark := "pruned"
			if e.Kept {
				mark = "KEPT"
			}
			ord := "unordered"
			if e.Order != "" {
				ord = "order: " + e.Order
			}
			fmt.Fprintf(&b, "    [%-6s] cost=%8.2f  %-12s  %s\n", mark, e.Cost, ord, e.Desc)
		}
	}
	return b.String()
}
