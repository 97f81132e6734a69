package storage

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"systemr/internal/value"
)

// FuzzDecodeRow: arbitrary bytes must decode to a row or an error, never
// panic; the append form must agree with DecodeRow on every input, errors
// included; decoding with a string arena must agree with decoding without
// one and must not alias its input; CheckEncodedRow must fail exactly when
// decoding does; on a valid record ColumnAt must read every column as the
// decode does and report none past the last; and a decoded row must
// round-trip exactly — kinds, values and float bits — through EncodeRow,
// AppendEncodedRow and EncodedSize.
func FuzzDecodeRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 2})
	f.Add(EncodeRow(nil))
	f.Add(EncodeRow(value.Row{value.NewInt(-1 << 40), value.Null(), value.NewString("abc")}))
	f.Add(EncodeRow(value.Row{value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.NaN())}))
	f.Fuzz(func(t *testing.T, data []byte) {
		row, err := DecodeRow(data)

		// The append form, onto a prefix it must leave untouched.
		prefix := value.Row{value.NewString("prefix"), value.NewInt(7)}
		dst := make(value.Row, len(prefix), len(prefix)+1)
		copy(dst, prefix)
		got, aerr := AppendDecodedRow(dst, data, nil)
		if !errors.Is(aerr, err) || (aerr == nil) != (err == nil) {
			t.Fatalf("AppendDecodedRow err %v, DecodeRow err %v", aerr, err)
		}
		if !identical(got[:len(prefix)], prefix) {
			t.Fatalf("AppendDecodedRow changed the prefix: %v", got[:len(prefix)])
		}
		// Through an arena that already holds a string, from a copy of the
		// record that is then overwritten.
		var arena Strings
		arena.Carve([]byte("held"))
		rec := bytes.Clone(data)
		carved, verr := AppendDecodedRow(nil, rec, &arena)
		for i := range rec {
			rec[i] = 0xff
		}
		if !errors.Is(verr, err) || (verr == nil) != (err == nil) {
			t.Fatalf("AppendDecodedRow with an arena err %v, DecodeRow err %v", verr, err)
		}
		if err == nil && !identical(carved, row) {
			t.Fatalf("AppendDecodedRow with an arena gave %v, DecodeRow %v", carved, row)
		}
		if cerr := CheckEncodedRow(data); !errors.Is(cerr, err) || (cerr == nil) != (err == nil) {
			t.Fatalf("CheckEncodedRow err %v, DecodeRow err %v", cerr, err)
		}
		if err != nil {
			if len(got) != len(prefix) {
				t.Fatalf("failed AppendDecodedRow kept %d appended values", len(got)-len(prefix))
			}
			for i := -1; i <= 2; i++ {
				ColumnAt(data, i) // any answer, but no panic
			}
			return
		}
		if !identical(got[len(prefix):], row) {
			t.Fatalf("AppendDecodedRow appended %v, DecodeRow gave %v", got[len(prefix):], row)
		}
		for i := -1; i <= len(row); i++ {
			v, ok, cerr := ColumnAt(data, i)
			if cerr != nil {
				t.Fatalf("ColumnAt(%d) of a valid record: %v", i, cerr)
			}
			if want := i >= 0 && i < len(row); ok != want {
				t.Fatalf("ColumnAt(%d) of a %d-column row: ok = %v", i, len(row), ok)
			}
			if ok && !identical(value.Row{v}, row[i:i+1]) {
				t.Fatalf("ColumnAt(%d) = %#v, decoded %#v", i, v, row[i])
			}
		}

		enc := EncodeRow(row)
		if n := EncodedSize(row); n != len(enc) {
			t.Fatalf("EncodedSize %d, len(EncodeRow) %d", n, len(enc))
		}
		if app := AppendEncodedRow(nil, row); !bytes.Equal(app, enc) {
			t.Fatalf("AppendEncodedRow(nil) %x, EncodeRow %x", app, enc)
		}
		again, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !identical(again, row) {
			t.Fatalf("round trip changed the row: %v vs %v", again, row)
		}
	})
}

// identical compares rows field by field, floats by their bits, so a round
// trip that turned -0 into 0 or changed a NaN payload is caught.
func identical(a, b value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Int != y.Int || x.Str != y.Str ||
			math.Float64bits(x.Float) != math.Float64bits(y.Float) {
			return false
		}
	}
	return true
}
