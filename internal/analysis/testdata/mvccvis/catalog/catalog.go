// The catalog cases: index builds and statistics take their rows from the
// RSS scans, so a heap walk of the catalog's own is a finding. The one
// exemption is insertFrozen, which validates the system-catalog records it
// has just encoded.
package catalog

import "fixture/storage"

func countLive(p *storage.Page, n uint16) int {
	live := 0
	for i := uint16(0); i < n; i++ {
		rec, _, ok := p.Record(i) // want "raw Page.Record bypasses MVCC visibility"
		if !ok {
			continue
		}
		if h, _, err := storage.ParseVersionHeader(rec); err == nil && h.Xmax == 0 { // want "hand-rolled version-header parsing bypasses MVCC visibility"
			live++
		}
	}
	return live
}

func validate(rec []byte) error {
	return storage.CheckEncodedRow(rec) // want "storage.CheckEncodedRow on a heap record bypasses MVCC visibility"
}

func insertFrozen(rec []byte) error {
	return storage.CheckEncodedRow(rec)
}
