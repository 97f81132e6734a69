package xsort

import (
	"math"
	"slices"
	"testing"

	"systemr/internal/value"
)

// Value palettes for the fuzzed key columns, one per column kind, led by
// the edges of value.Compare's order: NULL, the integer extremes, ±0, ±Inf
// and NaN, and strings with NUL bytes or that are prefixes of each other.
var fuzzPalettes = [3][]value.Value{
	{
		value.Null(), value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64),
		value.NewInt(math.MinInt64 + 1), value.NewInt(-1), value.NewInt(0),
		value.NewInt(1), value.NewInt(255), value.NewInt(256), value.NewInt(-256),
	},
	{
		value.Null(), value.NewFloat(math.NaN()), value.NewFloat(-math.NaN()),
		value.NewFloat(math.Inf(-1)), value.NewFloat(math.Inf(1)),
		value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0),
		value.NewFloat(math.SmallestNonzeroFloat64), value.NewFloat(-math.SmallestNonzeroFloat64),
		value.NewFloat(math.MaxFloat64), value.NewFloat(-math.MaxFloat64),
		value.NewFloat(-1.5), value.NewFloat(2.5),
	},
	{
		value.Null(), value.NewString(""), value.NewString("\x00"),
		value.NewString("\x00\x00"), value.NewString("\x00\x01"), value.NewString("\x01"),
		value.NewString("a"), value.NewString("a\x00"), value.NewString("a\x00b"),
		value.NewString("a\x01"), value.NewString("ab"), value.NewString("b"),
		value.NewString("\xff"), value.NewString("\xff\x00"),
	},
}

// FuzzSortOrder: the sort's output is, row for row, the stable sort of its
// input by value.CompareRows. shape picks 1–3 keys, their column kinds and
// directions, a Desc that may be shorter than Keys, and a buffer small
// enough that a 3-page pool (merge fan-in 2) writes several runs and makes
// intermediate passes; each byte of data picks one key value.
func FuzzSortOrder(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint16(0x0011), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint16(0x0021), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint16(0x4e92), []byte("a mixed-direction three-key sort with a short Desc and many ties"))
	f.Add(uint16(0x2a96), []byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x00\x00\x01\x01\x02\x02"))
	f.Add(uint16(0xffff), []byte("every key descending, the largest buffer"))
	f.Fuzz(sortOrderBody)
}

func sortOrderBody(t *testing.T, shape uint16, data []byte) {
	nkeys := 1 + int(shape&3)%3
	kinds := []int{int(shape>>2) & 3 % 3, int(shape>>4) & 3 % 3, int(shape>>6) & 3 % 3}
	desc := make([]bool, int(shape>>8)&3)
	for i := range desc {
		desc[i] = shape>>(10+i)&1 != 0
	}
	if len(data) > 256 {
		t.Skip("longer inputs add rows, not orders")
	}

	// Row: the key columns, then the arrival serial that identifies it.
	var rows []value.Row
	for len(data) >= nkeys {
		row := make(value.Row, nkeys+1)
		for k := 0; k < nkeys; k++ {
			p := fuzzPalettes[kinds[k]]
			row[k] = p[int(data[k])%len(p)]
		}
		row[nkeys] = value.NewInt(int64(len(rows)))
		rows = append(rows, row)
		data = data[nkeys:]
	}
	keys := []int{0, 1, 2}[:nkeys]
	want := slices.Clone(rows)
	slices.SortStableFunc(want, func(a, b value.Row) int { return value.CompareRows(a, b, keys, desc) })

	cfg, _ := newEnv(3)
	cfg.Keys, cfg.Desc = keys, desc
	cfg.BufferBytes = 64 << (shape >> 14)
	res, err := Sort(cfg, sliceInput(rows))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	got := drain(t, res)
	if len(got) != len(want) {
		t.Fatalf("%d rows out, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i][nkeys].Int != want[i][nkeys].Int || value.CompareRows(got[i], want[i], keys, nil) != 0 {
			t.Fatalf("keys %v desc %v: row %d is %v, want %v", keys, desc, i, got[i], want[i])
		}
	}
}
