// The exec cases: the executor consumes rows the RSS already ran through
// the snapshot visibility check. Re-deriving rows from raw page records
// here would resurrect delete-marked and uncommitted versions.
package exec

import "fixture/storage"

func rawScan(p *storage.Page, n uint16) []storage.Row {
	var out []storage.Row
	for i := uint16(0); i < n; i++ {
		rec, _, ok := p.Record(i) // want "raw Page.Record bypasses MVCC visibility"
		if !ok {
			continue
		}
		row, err := storage.DecodeRow(rec) // want "storage.DecodeRow on a heap record bypasses MVCC visibility"
		if err != nil {
			continue
		}
		out = append(out, row)
	}
	return out
}

// judge reads versions the way the RSS scans do — a page visit, a SARG
// column read from the stored record, a write-path check — without the
// snapshot ruling on any of them.
type judge struct{ keep [][]byte }

func (j *judge) VisitVersion(_ uint16, _ storage.RelID, _ storage.VersionHeader, body []byte) (bool, error) {
	if _, ok, err := storage.ColumnAt(body, 0); ok && err == nil { // want "storage.ColumnAt on a heap record bypasses MVCC visibility"
		j.keep = append(j.keep, body)
	}
	return false, storage.CheckEncodedRow(body) // want "storage.CheckEncodedRow on a heap record bypasses MVCC visibility"
}

func visitScan(p *storage.Page, n uint16) [][]byte {
	var j judge
	p.VisitVersions(0, n, &j) // want "raw Page.VisitVersions bypasses MVCC visibility"
	return j.keep
}

func peekHeader(rec []byte) storage.XID {
	h, _, err := storage.ParseVersionHeader(rec) // want "hand-rolled version-header parsing bypasses MVCC visibility"
	if err != nil {
		return 0
	}
	return h.Xmin
}

// ReadVersioned pairs the row with its header, so the snapshot can rule
// on it — no finding.
func visibleScan(p *storage.Page, s *storage.Snapshot, n uint16) []storage.Row {
	var out []storage.Row
	for i := uint16(0); i < n; i++ {
		h, row, _, ok := p.ReadVersioned(i)
		if ok && s.Visible(h) {
			out = append(out, row)
		}
	}
	return out
}
