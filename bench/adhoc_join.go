package main

import (
	"fmt"
	"math/rand"
	"strings"

	"systemr"
	"systemr/internal/value"
)

// adhoc_join: eight small relations joined along foreign keys (a star around
// ORDERS/ITEM with chains to REGION and CATEGORY), literal text through
// DB.Query. Three quarters of the texts are new to the plan cache, so
// sql.Parse, sem.Analyze and the core dynamic program run on nearly every
// statement while the executor touches at most a few dozen rows.

// An ajTable is one relation: a unique key <p>ID, one column per parent
// holding that parent's key, two integer attributes <p>A in [0,10) and <p>B
// in [0,100), and a name <p>NAME.
type ajTable struct {
	name, p string
	rows    int   // at scale 1
	parents []int // indexes into ajSchema
}

var ajSchema = []ajTable{
	{name: "REGION", p: "R", rows: 50},
	{name: "NATION", p: "N", rows: 100, parents: []int{0}},
	{name: "CUST", p: "C", rows: 1000, parents: []int{1}},
	{name: "SUPP", p: "S", rows: 200, parents: []int{1}},
	{name: "CATEGORY", p: "G", rows: 50},
	{name: "PART", p: "P", rows: 1000, parents: []int{4}},
	{name: "ORDERS", p: "O", rows: 2000, parents: []int{2, 3}},
	{name: "ITEM", p: "I", rows: 2000, parents: []int{6, 5}},
}

func (t ajTable) col(suffix string) string { return t.name + "." + t.p + suffix }

// fkCol names the column of t that references parent slot s.
func (t ajTable) fkCol(s int) string { return t.name + "." + t.p + ajSchema[t.parents[s]].p }

type ajData struct {
	n    int
	fk   [][]int32 // per parent slot, per row: the parent's key
	a, b []int8
}

const (
	ajHotTexts  = 32
	ajHotShare  = 0.25
	ajMaxTables = 6
	// ajMaxSpan bounds the key range on the lowest table, and with it the
	// result: the executor must stay the smaller half of the statement.
	ajMaxSpan = 4
)

// A splitmix is a random source that costs nothing to reseed: every text's
// structure is drawn anew from its shape number in every round, and seeding
// one of math/rand's own sources takes longer than generating the text.
type splitmix uint64

func (s *splitmix) Seed(seed int64) { *s = splitmix(seed) }

func (s *splitmix) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

type adhocJoin struct {
	seed     int64
	data     []ajData
	hot      []op
	roundOps int
	shapeSrc splitmix
	shape    *rand.Rand // draws from shapeSrc
	// rounds holds the lists generated so far; seen holds every text in
	// them, so that no text outside the hot set is ever issued twice.
	rounds [][]op
	seen   map[string]bool
}

// newAdhocJoin builds the relations at rows×scale (at most maxRows each,
// which is how the verification copy is made) and the hot texts; rounds of
// roundOps texts are generated as ops asks for them.
func newAdhocJoin(seed int64, scale float64, maxRows, roundOps int) *adhocJoin {
	// The eight relations hold the same rows under every seed; the seed
	// draws the constants of the texts. Which rows a foreign key happens to
	// group decides whether a join is worth a hash table, and that alone
	// moved RSI calls per statement by 5 % from seed to seed.
	fixed := rand.New(rand.NewSource(ajHotTexts))
	w := &adhocJoin{seed: seed, data: make([]ajData, len(ajSchema)), roundOps: roundOps, seen: make(map[string]bool)}
	w.shape = rand.New(&w.shapeSrc)
	for ti, t := range ajSchema {
		n := min(max(int(float64(t.rows)*scale), 4), maxRows)
		d := ajData{n: n, a: make([]int8, n), b: make([]int8, n)}
		for _, p := range t.parents {
			col := make([]int32, n)
			for i := range col {
				col[i] = int32(fixed.Intn(w.data[p].n))
			}
			d.fk = append(d.fk, col)
		}
		for i := 0; i < n; i++ {
			d.a[i], d.b[i] = int8(fixed.Intn(10)), int8(fixed.Intn(100))
		}
		w.data[ti] = d
	}
	// The hot texts are the same under every seed, constants included: an
	// application's canned queries.
	w.hot = make([]op, min(ajHotTexts, max(roundOps/4, 1)))
	for i := range w.hot {
		w.hot[i] = w.fresh(int64(i), fixed)
	}
	return w
}

// fresh returns a text that no list holds yet. shape names its structure,
// constants draws its constants.
func (w *adhocJoin) fresh(shape int64, constants *rand.Rand) op {
	for try := 0; ; try++ {
		// A tiny relation may leave a structure no unused constants; then
		// move on to another structure.
		w.shapeSrc = splitmix(shape + int64(try/8)<<32)
		o := w.genQuery(w.shape, constants)
		if !w.seen[o.text] {
			w.seen[o.text] = true
			return o
		}
	}
}

// ops generates the round's list. A quarter of its positions, the same in
// every round, draw from the hot texts. The i-th other text has the same
// structure in every round and under every seed — which tables, which kinds
// of predicate — and fresh constants drawn from the seed and the round, as a
// query suite with substitution parameters would be run again: runs of
// different seeds do the same kind of work, and a text outside the hot set
// is new to the plan cache because it was never issued before, however large
// the cache and whatever it evicts.
func (w *adhocJoin) ops(_, round int) []op {
	for r := len(w.rounds); r <= round; r++ {
		mix := rand.New(rand.NewSource(ajHotTexts))
		constants := rand.New(rand.NewSource(w.seed<<16 + int64(r)))
		list := make([]op, w.roundOps)
		for i := range list {
			if mix.Float64() < ajHotShare {
				list[i] = w.hot[mix.Intn(len(w.hot))]
			} else {
				list[i] = w.fresh(int64(len(w.hot)+i), constants)
			}
		}
		w.rounds = append(w.rounds, list)
	}
	return w.rounds[round]
}

// A pred is one local predicate "<table>.<p><col> <op> <v>".
type ajPred struct {
	table int
	col   byte // 'A' or 'B'
	op    string
	v     int
}

func (w *adhocJoin) attr(table int, col byte, row int32) int {
	if col == 'A' {
		return int(w.data[table].a[row])
	}
	return int(w.data[table].b[row])
}

func (p ajPred) holds(v int) bool {
	switch p.op {
	case "=":
		return v == p.v
	case "<":
		return v < p.v
	default:
		return v >= p.v
	}
}

// genQuery draws one query: a lowest table restricted to a short key range,
// joined to a random subtree of its ancestors, with up to two more local
// predicates; one in five sorts or groups, one in ten has an IN subquery.
// shape decides the structure, rnd the constants. Every join is
// child-to-parent on the parent's unique key, so the result has at most one
// row per qualifying row of the lowest table, and the generator can count
// them by walking the foreign keys itself.
func (w *adhocJoin) genQuery(shape, rnd *rand.Rand) op {
	lowest := []int{1, 2, 3, 5, 6, 6, 7, 7, 7}[shape.Intn(9)]
	want := 2 + shape.Intn(ajMaxTables-1)
	type member struct{ table, child, slot int } // child = position in set of the referencing table
	set := []member{{table: lowest, child: -1}}
	for len(set) < want {
		var edges []member
		for pos, m := range set {
		next:
			for s, p := range ajSchema[m.table].parents {
				for _, have := range set {
					if have.table == p {
						continue next
					}
				}
				edges = append(edges, member{table: p, child: pos, slot: s})
			}
		}
		if len(edges) == 0 {
			break
		}
		set = append(set, edges[shape.Intn(len(edges))])
	}

	low := ajSchema[lowest]
	n := w.data[lowest].n
	span := shape.Intn(ajMaxSpan)
	lo := rnd.Intn(max(n-span, 1))
	hi := min(lo+span, n-1)
	var preds []ajPred
	for k := shape.Intn(3); k > 0; k-- {
		p := ajPred{table: set[shape.Intn(len(set))].table, col: 'A', op: "=", v: rnd.Intn(10)}
		if shape.Intn(2) == 0 {
			// A range's constant belongs to the structure: it decides how
			// many rows pass, and the seeds should do equal work.
			p.col, p.op, p.v = 'B', []string{"<", ">="}[shape.Intn(2)], 10+shape.Intn(80)
		}
		preds = append(preds, p)
	}
	// The IN subquery restricts the last table of the set through one of its
	// parents: <fk> IN (SELECT <parent key> FROM <parent> WHERE <parent>A = v).
	variant := shape.Intn(10)
	subOn, subSlot, subV := -1, 0, 0
	if last := set[len(set)-1]; variant == 0 && len(ajSchema[last.table].parents) > 0 {
		subOn, subSlot, subV = len(set)-1, shape.Intn(len(ajSchema[last.table].parents)), rnd.Intn(10)
	}
	groupBy := -1
	if variant == 1 {
		groupBy = shape.Intn(len(set))
	}

	// The generator's own answer.
	var rows int
	var idSum int64
	groups := make(map[int]int)
	resolved := make([]int32, len(set))
	for id := lo; id <= hi; id++ {
		resolved[0] = int32(id)
		for pos := 1; pos < len(set); pos++ {
			m := set[pos]
			resolved[pos] = w.data[set[m.child].table].fk[m.slot][resolved[m.child]]
		}
		ok := true
		for _, p := range preds {
			for pos, m := range set {
				if m.table == p.table && !p.holds(w.attr(m.table, p.col, resolved[pos])) {
					ok = false
				}
			}
		}
		if ok && subOn >= 0 {
			t := set[subOn].table
			parent := ajSchema[t].parents[subSlot]
			ok = int(w.data[parent].a[w.data[t].fk[subSlot][resolved[subOn]]]) == subV
		}
		if !ok {
			continue
		}
		rows++
		idSum += int64(id)
		if groupBy >= 0 {
			groups[w.attr(set[groupBy].table, 'A', resolved[groupBy])]++
		}
	}

	var from, where []string
	for _, m := range set {
		from = append(from, ajSchema[m.table].name)
		if m.child >= 0 {
			child := ajSchema[set[m.child].table]
			where = append(where, child.fkCol(m.slot)+" = "+ajSchema[m.table].col("ID"))
		}
	}
	where = append(where, fmt.Sprintf("%s BETWEEN %d AND %d", low.col("ID"), lo, hi))
	for _, p := range preds {
		where = append(where, fmt.Sprintf("%s %s %d", ajSchema[p.table].col(string(p.col)), p.op, p.v))
	}
	if subOn >= 0 {
		t := ajSchema[set[subOn].table]
		parent := ajSchema[t.parents[subSlot]]
		where = append(where, fmt.Sprintf("%s IN (SELECT %sID FROM %s WHERE %sA = %d)",
			t.fkCol(subSlot), parent.p, parent.name, parent.p, subV))
	}
	tail := " FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")

	if groupBy >= 0 {
		g := ajSchema[set[groupBy].table].col("A")
		o := op{text: "SELECT " + g + ", COUNT(*)" + tail + " GROUP BY " + g, rows: len(groups), sums: []int64{0, int64(rows)}}
		for a := range groups {
			o.sums[0] += int64(a)
		}
		return o
	}
	last := ajSchema[set[len(set)-1].table]
	o := op{text: "SELECT " + low.col("ID") + ", " + last.col("NAME") + ", " + last.col("B") + tail,
		rows: rows, sums: []int64{idSum}}
	if variant == 2 {
		o.text += " ORDER BY " + last.col("B") + ", " + low.col("ID")
	}
	return o
}

func (w *adhocJoin) tables() []tableDef {
	defs := make([]tableDef, len(ajSchema))
	for ti, t := range ajSchema {
		d := w.data[ti]
		cols := t.p + "ID INTEGER"
		indexes := []string{fmt.Sprintf("CREATE UNIQUE INDEX %s_ID ON %s (%sID)", t.name, t.name, t.p)}
		for s, p := range t.parents {
			cols += ", " + t.p + ajSchema[p].p + " INTEGER"
			if s == 0 {
				indexes = append(indexes, fmt.Sprintf("CREATE INDEX %s_%s ON %s (%s%s)", t.name, ajSchema[p].p, t.name, t.p, ajSchema[p].p))
			}
		}
		cols += fmt.Sprintf(", %sA INTEGER, %sB INTEGER, %sNAME VARCHAR", t.p, t.p, t.p)
		defs[ti] = tableDef{name: t.name, cols: cols, indexes: indexes, n: d.n,
			row: func(i int) value.Row {
				r := value.Row{value.NewInt(int64(i))}
				for _, col := range d.fk {
					r = append(r, value.NewInt(int64(col[i])))
				}
				return append(r, value.NewInt(int64(d.a[i])), value.NewInt(int64(d.b[i])),
					value.NewString(fmt.Sprintf("%s%05d", t.p, i)))
			}}
	}
	return defs
}

func (w *adhocJoin) prepare(*systemr.DB) error { return nil }

func (w *adhocJoin) exec(c *client, o *op) { c.query(o) }

func (w *adhocJoin) finish(*systemr.DB, []*client) error { return nil }

func (w *adhocJoin) sizes() map[string]int {
	s := map[string]int{"round_ops": w.roundOps}
	for ti, t := range ajSchema {
		s[t.name] = w.data[ti].n
	}
	return s
}
