// Package storage mirrors the version-header and record primitives the
// mvccvis analyzer polices: the raw accessors (Record, VisitVersions,
// DecodeRow, ColumnAt, CheckEncodedRow, ParseVersionHeader) and a header
// read the snapshot can rule on (ReadVersioned + Snapshot.Visible).
package storage

type RelID uint32

type XID uint64

type Row []any

type VersionHeader struct {
	Xmin, Xmax XID
}

type Snapshot struct {
	Self, Max XID
}

func (s *Snapshot) Visible(h VersionHeader) bool { return h.Xmax == 0 }

type Page struct{ n uint16 }

func (p *Page) Record(i uint16) (rec []byte, rel RelID, ok bool) { return nil, 0, i < p.n }

func (p *Page) ReadVersioned(i uint16) (VersionHeader, Row, RelID, bool) {
	return VersionHeader{}, nil, 0, i < p.n
}

type VersionVisitor interface {
	VisitVersion(slot uint16, rel RelID, h VersionHeader, body []byte) (bool, error)
}

func (p *Page) VisitVersions(from, to uint16, v VersionVisitor) (uint16, error) { return to, nil }

func DecodeRow(rec []byte) (Row, error) { return nil, nil }

func ColumnAt(rec []byte, i int) (any, bool, error) { return nil, false, nil }

func CheckEncodedRow(rec []byte) error { return nil }

func ParseVersionHeader(rec []byte) (VersionHeader, []byte, error) {
	return VersionHeader{}, rec, nil
}
