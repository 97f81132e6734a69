// The exec cases: the executor reads through the RSI but must never mutate
// pages or indexes directly — a mutation here is invisible to the undo log
// and survives rollback.
package exec

import (
	"fixture/btree"
	"fixture/storage"
)

func compact(p *storage.Page, n uint16) {
	for i := uint16(0); i < n; i++ {
		p.Delete(i) // want "direct storage mutation Page.Delete"
	}
}

func markDead(p *storage.Page, i uint16) {
	p.SwapXmax(i, 0, 7) // want "direct storage mutation Page.SwapXmax"
}

func patchIndex(t *btree.BTree, rec []byte, tid storage.TID) {
	t.Insert(rec, tid) // want "direct index mutation BTree.Insert"
	t.Delete(rec, tid) // want "direct index mutation BTree.Delete"
}

// The escape hatch: a directive with a reason silences the finding.
func rebuildForTest(p *storage.Page, rec []byte) {
	//sysrcheck:ignore layering test-only page surgery, reverted by the harness
	p.Restore(0, 0, rec)
}
