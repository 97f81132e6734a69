// Outside the policed packages — the RSS itself, test scaffolding — raw
// record access is the job: no finding.
package other

import "fixture/storage"

func rawDump(p *storage.Page, n uint16) [][]byte {
	var out [][]byte
	for i := uint16(0); i < n; i++ {
		rec, _, ok := p.Record(i)
		if !ok {
			continue
		}
		if h, body, err := storage.ParseVersionHeader(rec); err == nil && h.Xmax == 0 {
			if _, err := storage.DecodeRow(body); err == nil {
				out = append(out, rec)
			}
		}
	}
	return out
}
