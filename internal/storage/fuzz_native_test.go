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
// included; and a decoded row must round-trip exactly — kinds, values and
// float bits — through EncodeRow, AppendEncodedRow and EncodedSize.
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
		got, aerr := AppendDecodedRow(dst, data)
		if !errors.Is(aerr, err) || (aerr == nil) != (err == nil) {
			t.Fatalf("AppendDecodedRow err %v, DecodeRow err %v", aerr, err)
		}
		if !identical(got[:len(prefix)], prefix) {
			t.Fatalf("AppendDecodedRow changed the prefix: %v", got[:len(prefix)])
		}
		if err != nil {
			if len(got) != len(prefix) {
				t.Fatalf("failed AppendDecodedRow kept %d appended values", len(got)-len(prefix))
			}
			return
		}
		if !identical(got[len(prefix):], row) {
			t.Fatalf("AppendDecodedRow appended %v, DecodeRow gave %v", got[len(prefix):], row)
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
