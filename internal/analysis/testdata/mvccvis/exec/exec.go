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

func peekHeader(rec []byte) storage.XID {
	h, _, err := storage.ParseVersionHeader(rec) // want "hand-rolled version-header parsing bypasses MVCC visibility"
	if err != nil {
		return 0
	}
	return h.Xmin
}

// The sanctioned shape: ReadVersioned pairs the row with its header so the
// snapshot can rule on it — no finding.
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

// The escape hatch: a directive with a reason silences the finding.
func dumpForTest(p *storage.Page) []byte {
	//sysrcheck:ignore layering test-only raw dump, compared against the oracle heap
	rec, _, _ := p.Record(0)
	return rec
}
