package systemr

import (
	"math"
	"unsafe"

	"systemr/internal/value"
)

// The public result's cells are native Go values in interfaces. Boxing
// them one by one allocates per cell; nativeRows instead carves every row's
// cells from one []any chunk, their int64 and float64 values from one chunk
// of 8-byte words and their strings from one chunk of string headers, and
// builds each interface with its data word pointing into its chunk — where
// an ordinary conversion would point it at a fresh allocation. Nothing
// writes a chunk after its cells are built, so the cells are ordinary
// values to ==, reflect, fmt and encoding/json alike. storage.ColumnAt's
// unsafe.String is the same idiom for strings.

// eface is an empty interface's layout: its type word, then its data word.
type eface struct {
	typ, data unsafe.Pointer
}

// The type words of the three non-NULL cell types.
var (
	int64Type   = typeWord(int64(0))
	float64Type = typeWord(float64(0))
	stringType  = typeWord("")
)

func typeWord(v any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&v)).typ }

// boxAt returns the interface of dynamic type typ whose value is the one
// at p, without copying it.
func boxAt(typ, p unsafe.Pointer) (v any) {
	e := (*eface)(unsafe.Pointer(&v))
	e.typ, e.data = typ, p
	return v
}

// nativeRows converts rows to native Go values into out, which has rows'
// length: int64, float64, string, or nil for NULL. Ints 0–255 and ""
// convert as Go converts them, to static boxes that allocate nothing; every
// other value is carved from a chunk, so a result allocates at most three
// chunks however many cells it has.
func nativeRows(out [][]any, rows []value.Row) {
	var ncells, nwords, nstrs int
	for _, r := range rows {
		ncells += len(r)
		for _, v := range r {
			switch v.Kind {
			case value.KindInt:
				if uint64(v.Int) > 255 {
					nwords++
				}
			case value.KindFloat:
				nwords++
			case value.KindString:
				if v.Str != "" {
					nstrs++
				}
			}
		}
	}
	cells := make([]any, ncells)
	words := make([]uint64, 0, nwords) // int64 and float64 bits
	strs := make([]string, 0, nstrs)
	for i, r := range rows {
		c := cells[:len(r):len(r)]
		cells = cells[len(r):]
		for j, v := range r {
			switch v.Kind {
			case value.KindInt:
				if uint64(v.Int) <= 255 {
					c[j] = v.Int
					continue
				}
				words = append(words, uint64(v.Int))
				c[j] = boxAt(int64Type, unsafe.Pointer(&words[len(words)-1]))
			case value.KindFloat:
				words = append(words, math.Float64bits(v.Float))
				c[j] = boxAt(float64Type, unsafe.Pointer(&words[len(words)-1]))
			case value.KindString:
				if v.Str == "" {
					c[j] = ""
					continue
				}
				strs = append(strs, v.Str)
				c[j] = boxAt(stringType, unsafe.Pointer(&strs[len(strs)-1]))
			}
		}
		out[i] = c
	}
}
