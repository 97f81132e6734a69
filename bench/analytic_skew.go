package main

import (
	"fmt"
	"math/rand"

	"systemr"
	"systemr/internal/value"
)

// analytic_skew: a zipfian fact relation about ten times the buffer pool,
// two small dimensions, and a cycle of eight literal templates whose
// constants come from a small pool, so every text is a plan-cache hit after
// the warm-up. Scans, joins, sorts and aggregation do the work; buffer-pool
// misses, evictions and row decoding dominate; compile time is noise.

const (
	asRegions = 4
	asZipfS   = 1.3
	asCycles  = 3 // cycles of the templates per round, each with other constants
)

type analyticSkew struct {
	n, keys, groups int
	key             []int16
	val             []uint8
	ts              []int32
	span            int // rows of the unique-index range template
	list            []op
}

func (w *analyticSkew) groupOf(key int) int { return key % w.groups }
func asRegionOf(grp int) int                { return grp % asRegions }

func newAnalyticSkew(seed int64, events, keys, groups int) *analyticSkew {
	rnd := rand.New(rand.NewSource(seed))
	w := &analyticSkew{n: events, keys: keys, groups: groups, span: min(5000, max(events/4, 1))}
	zipf := rand.NewZipf(rnd, asZipfS, 1, uint64(keys-1))
	w.key = make([]int16, events)
	w.val = make([]uint8, events)
	w.ts = make([]int32, events)
	perKey := make([]int, keys)
	for i := 0; i < events; i++ {
		w.key[i] = int16(zipf.Uint64())
		w.val[i] = uint8(rnd.Intn(100))
		w.ts[i] = int32(i/10 + rnd.Intn(50))
		perKey[w.key[i]]++
	}
	// The hottest keys are the smallest (zipf); cold keys are drawn from the
	// ones that occur at all, rarest first.
	cold := make([]int, 0, asCycles)
	for limit := 1; len(cold) < asCycles && limit <= events; limit++ {
		for k := keys - 1; k > 0 && len(cold) < asCycles; k-- {
			if perKey[k] == limit {
				cold = append(cold, k)
			}
		}
	}

	// count answers "how many events satisfy keep, and what do these columns
	// sum to" from the generator's own rows.
	count := func(keep func(i int) bool) (n, ids, vals int64) {
		for i := 0; i < events; i++ {
			if keep(i) {
				n, ids, vals = n+1, ids+int64(i), vals+int64(w.val[i])
			}
		}
		return
	}
	for c := 0; c < asCycles; c++ {
		n, _, vals := count(func(int) bool { return true })
		w.add("SELECT COUNT(*), SUM(VAL) FROM EVENTS", 1, n, vals)

		v := rnd.Intn(100)
		n, ids, _ := count(func(i int) bool { return int(w.val[i]) == v })
		w.add(fmt.Sprintf("SELECT COUNT(*), SUM(ID) FROM EVENTS WHERE VAL = %d", v), 1, n, ids)

		cut := int32(events/10) * int32(2+c) / 10
		seen := make(map[int16]bool)
		n, _, vals = count(func(i int) bool {
			if w.ts[i] < cut {
				seen[w.key[i]] = true
			}
			return w.ts[i] < cut
		})
		var keySum int64
		for k := range seen {
			keySum += int64(k)
		}
		w.add(fmt.Sprintf("SELECT KEY, COUNT(*), SUM(VAL) FROM EVENTS WHERE TS < %d GROUP BY KEY", cut), len(seen), keySum, n, vals)

		for _, k := range []int{c, cold[c%len(cold)]} { // a hot key, then a cold one
			n, _, vals = count(func(i int) bool { return int(w.key[i]) == k })
			w.add(fmt.Sprintf("SELECT COUNT(*), SUM(VAL) FROM EVENTS WHERE KEY = %d", k), 1, n, vals)
		}

		g := c * 7 % groups // group 0 holds the hottest key
		n, _, vals = count(func(i int) bool { return w.groupOf(int(w.key[i])) == g })
		w.add(fmt.Sprintf("SELECT COUNT(*), SUM(EVENTS.VAL) FROM EVENTS, KEYS WHERE EVENTS.KEY = KEYS.KEY AND KEYS.GRP = %d", g), 1, n, vals)

		r, v := c%asRegions, rnd.Intn(100)
		n, ids, _ = count(func(i int) bool {
			return int(w.val[i]) == v && asRegionOf(w.groupOf(int(w.key[i]))) == r
		})
		w.add(fmt.Sprintf("SELECT EVENTS.ID, KEYS.NAME, GROUPS.REGION FROM EVENTS, KEYS, GROUPS"+
			" WHERE EVENTS.KEY = KEYS.KEY AND KEYS.GRP = GROUPS.GRP AND GROUPS.REGION = %d AND EVENTS.VAL = %d ORDER BY KEYS.NAME", r, v),
			int(n), ids)

		lo := rnd.Intn(events - w.span + 1)
		n, ids, vals = count(func(i int) bool { return i >= lo && i < lo+w.span })
		w.add(fmt.Sprintf("SELECT ID, VAL FROM EVENTS WHERE ID BETWEEN %d AND %d ORDER BY ID", lo, lo+w.span-1), int(n), ids, vals)
	}
	return w
}

func (w *analyticSkew) add(text string, rows int, sums ...int64) {
	w.list = append(w.list, op{kind: uint8(len(w.list) % 8), text: text, rows: rows, sums: sums})
}

func (w *analyticSkew) tables() []tableDef {
	return []tableDef{
		{
			name: "EVENTS", cols: "ID INTEGER, KEY INTEGER, VAL INTEGER, TS INTEGER",
			indexes: []string{
				"CREATE UNIQUE INDEX EVENTS_ID ON EVENTS (ID)",
				"CREATE INDEX EVENTS_KEY ON EVENTS (KEY)",
			},
			n: w.n,
			row: func(i int) value.Row {
				return value.Row{value.NewInt(int64(i)), value.NewInt(int64(w.key[i])),
					value.NewInt(int64(w.val[i])), value.NewInt(int64(w.ts[i]))}
			},
		},
		{
			name: "KEYS", cols: "KEY INTEGER, GRP INTEGER, NAME VARCHAR",
			indexes: []string{"CREATE UNIQUE INDEX KEYS_KEY ON KEYS (KEY)", "CREATE INDEX KEYS_GRP ON KEYS (GRP)"},
			n:       w.keys,
			row: func(i int) value.Row {
				return value.Row{value.NewInt(int64(i)), value.NewInt(int64(w.groupOf(i))),
					value.NewString(fmt.Sprintf("K%04d", (i*7919)%w.keys))}
			},
		},
		{
			name: "GROUPS", cols: "GRP INTEGER, REGION INTEGER",
			indexes: []string{"CREATE UNIQUE INDEX GROUPS_GRP ON GROUPS (GRP)"},
			n:       w.groups,
			row: func(i int) value.Row {
				return value.Row{value.NewInt(int64(i)), value.NewInt(int64(asRegionOf(i)))}
			},
		},
	}
}

func (w *analyticSkew) prepare(*systemr.DB) error { return nil }

func (w *analyticSkew) ops(int, int) []op { return w.list }

func (w *analyticSkew) exec(c *client, o *op) { c.query(o) }

func (w *analyticSkew) finish(*systemr.DB, []*client) error { return nil }

func (w *analyticSkew) sizes() map[string]int {
	return map[string]int{"EVENTS": w.n, "KEYS": w.keys, "GROUPS": w.groups, "round_ops": len(w.list)}
}
