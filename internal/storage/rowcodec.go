package storage

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"systemr/internal/check"

	"systemr/internal/value"
)

// Row codec: the on-page record format.
//
//	uvarint column count, then per column:
//	  1 byte kind tag
//	  KindInt:    varint
//	  KindFloat:  8 bytes IEEE-754 little-endian
//	  KindString: uvarint length + bytes
//	  KindNull:   nothing
//
// Compact varint integers keep TCARD realistic for relations of small
// integers, which matters because the experiments compare measured page
// counts against the catalog's TCARD statistics.

// ErrCorruptRecord reports a record that does not parse as an encoded row.
var ErrCorruptRecord = errors.New("storage: corrupt record")

// EncodedSize returns len(EncodeRow(r)) without encoding: the measure a sort
// sizes its runs by.
func EncodedSize(r value.Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, v := range r {
		n++ // kind tag
		switch v.Kind {
		case value.KindNull:
		case value.KindInt:
			n += uvarintLen(uint64(v.Int<<1) ^ uint64(v.Int>>63)) // zigzag, as binary.AppendVarint
		case value.KindFloat:
			n += 8
		case value.KindString:
			n += uvarintLen(uint64(len(v.Str))) + len(v.Str)
		default:
			check.Failf("storage: cannot encode kind %v", v.Kind)
		}
	}
	return n
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// EncodeRow serializes a row into a fresh, exactly sized byte slice.
func EncodeRow(r value.Row) []byte {
	return AppendEncodedRow(make([]byte, 0, EncodedSize(r)), r)
}

// AppendEncodedRow appends the encoding of r to dst and returns the extended
// slice, so a caller encoding many rows can reuse one buffer.
func AppendEncodedRow(dst []byte, r value.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case value.KindNull:
		case value.KindInt:
			dst = binary.AppendVarint(dst, v.Int)
		case value.KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float))
		case value.KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
			dst = append(dst, v.Str...)
		default:
			check.Failf("storage: cannot encode kind %v", v.Kind)
		}
	}
	return dst
}

// DecodeRow parses an encoded row into a fresh row. The returned row does
// not alias rec.
func DecodeRow(rec []byte) (value.Row, error) {
	row, err := AppendDecodedRow(nil, rec)
	if err != nil {
		return nil, err
	}
	return row, nil
}

// AppendDecodedRow parses an encoded row and appends its columns to dst,
// returning the extended slice; the appended values do not alias rec. When
// dst lacks room it grows as append does. On error it returns dst with its
// original length, so a caller decoding into a reused buffer simply carries
// on from there.
func AppendDecodedRow(dst value.Row, rec []byte) (value.Row, error) {
	n, k := binary.Uvarint(rec)
	// Every column takes at least its kind tag, so a count beyond the bytes
	// left is corrupt: reject it before reserving room for it.
	if k <= 0 || n > uint64(PageSize) || n > uint64(len(rec)-k) {
		return dst, ErrCorruptRecord
	}
	rec = rec[k:]
	base := len(dst)
	dst = slices.Grow(dst, int(n))
	for i := uint64(0); i < n; i++ {
		if len(rec) == 0 {
			return dst[:base], ErrCorruptRecord
		}
		kind := value.Kind(rec[0])
		rec = rec[1:]
		switch kind {
		case value.KindNull:
			dst = append(dst, value.Null())
		case value.KindInt:
			v, k := binary.Varint(rec)
			if k <= 0 {
				return dst[:base], ErrCorruptRecord
			}
			rec = rec[k:]
			dst = append(dst, value.NewInt(v))
		case value.KindFloat:
			if len(rec) < 8 {
				return dst[:base], ErrCorruptRecord
			}
			dst = append(dst, value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(rec))))
			rec = rec[8:]
		case value.KindString:
			l, k := binary.Uvarint(rec)
			if k <= 0 || uint64(len(rec)-k) < l {
				return dst[:base], ErrCorruptRecord
			}
			rec = rec[k:]
			dst = append(dst, value.NewString(string(rec[:l])))
			rec = rec[l:]
		default:
			return dst[:base], ErrCorruptRecord
		}
	}
	if len(rec) != 0 {
		return dst[:base], ErrCorruptRecord
	}
	return dst, nil
}
