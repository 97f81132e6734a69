package storage

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"unsafe"

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
	row, err := AppendDecodedRow(nil, rec, nil)
	if err != nil {
		return nil, err
	}
	return row, nil
}

// AppendDecodedRow parses an encoded row and appends its columns to dst,
// returning the extended slice; the appended values do not alias rec. Its
// strings are carved from strs, or copied one by one when strs is nil. When
// dst lacks room it grows as append does. On error it returns dst with its
// original length, so a caller decoding into a reused buffer simply carries
// on from there.
func AppendDecodedRow(dst value.Row, rec []byte, strs *Strings) (value.Row, error) {
	n, rec, ok := columnCount(rec)
	if !ok {
		return dst, ErrCorruptRecord
	}
	base := len(dst)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
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
			dst = append(dst, value.NewString(strs.Carve(rec[:l])))
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

// CheckEncodedRow reports ErrCorruptRecord for exactly the records
// AppendDecodedRow rejects, without building a row: the write path runs it
// on every heap record it stores, so a scan that reads single columns of a
// record (ColumnAt) and decodes only the versions it returns never meets a
// malformed one it would have skipped.
func CheckEncodedRow(rec []byte) error {
	n, rec, ok := columnCount(rec)
	if !ok {
		return ErrCorruptRecord
	}
	for i := 0; i < n; i++ {
		if rec, ok = skipColumn(rec); !ok {
			return ErrCorruptRecord
		}
	}
	if len(rec) != 0 {
		return ErrCorruptRecord
	}
	return nil
}

// ColumnAt reads column i of an encoded row without decoding the others.
// ok is false, with no error, when i is negative or past the row's last
// column; a record that does not parse up to column i is ErrCorruptRecord.
// A string column's Str aliases rec: it is valid only while rec is, and a
// caller reading a page image holds the page's latch for as long as it
// uses the value.
func ColumnAt(rec []byte, i int) (v value.Value, ok bool, err error) {
	n, rec, ok := columnCount(rec)
	if !ok {
		return value.Value{}, false, ErrCorruptRecord
	}
	if i < 0 || i >= n {
		return value.Value{}, false, nil
	}
	for j := 0; j < i; j++ {
		if rec, ok = skipColumn(rec); !ok {
			return value.Value{}, false, ErrCorruptRecord
		}
	}
	if len(rec) == 0 {
		return value.Value{}, false, ErrCorruptRecord
	}
	kind := value.Kind(rec[0])
	rec = rec[1:]
	switch kind {
	case value.KindNull:
		return value.Null(), true, nil
	case value.KindInt:
		if x, k := binary.Varint(rec); k > 0 {
			return value.NewInt(x), true, nil
		}
	case value.KindFloat:
		if len(rec) >= 8 {
			return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(rec))), true, nil
		}
	case value.KindString:
		if l, k := binary.Uvarint(rec); k > 0 && uint64(len(rec)-k) >= l {
			return value.NewString(unsafe.String(unsafe.SliceData(rec[k:]), int(l))), true, nil
		}
	}
	return value.Value{}, false, ErrCorruptRecord
}

// columnCount reads an encoded row's column count and returns the bytes
// after it.
func columnCount(rec []byte) (int, []byte, bool) {
	n, k := binary.Uvarint(rec)
	// Every column takes at least its kind tag, so a count beyond the bytes
	// left is corrupt: reject it before reserving room for it.
	if k <= 0 || n > uint64(PageSize) || n > uint64(len(rec)-k) {
		return 0, nil, false
	}
	return int(n), rec[k:], true
}

// skipColumn returns the bytes after the column at the head of rec without
// reading its value, and false for a column AppendDecodedRow rejects.
func skipColumn(rec []byte) ([]byte, bool) {
	if len(rec) == 0 {
		return nil, false
	}
	kind := value.Kind(rec[0])
	rec = rec[1:]
	switch kind {
	case value.KindNull:
		return rec, true
	case value.KindInt:
		if _, k := binary.Varint(rec); k > 0 {
			return rec[k:], true
		}
	case value.KindFloat:
		if len(rec) >= 8 {
			return rec[8:], true
		}
	case value.KindString:
		if l, k := binary.Uvarint(rec); k > 0 && uint64(len(rec)-k) >= l {
			return rec[k+int(l):], true
		}
	}
	return nil, false
}
