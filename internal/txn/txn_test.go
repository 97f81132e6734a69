package txn

import (
	"errors"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/lock"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

type env struct {
	disk *storage.Disk
	cat  *catalog.Catalog
	mgr  *lock.Manager
	reg  *Registry
}

func newEnv(t *testing.T) (*env, *catalog.Table) {
	t.Helper()
	disk := storage.NewDisk()
	cat := catalog.New(disk)
	tab, err := cat.CreateTable("T", []catalog.Column{
		{Name: "K", Type: value.KindInt},
		{Name: "V", Type: value.KindString},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("T_K", "T", []string{"K"}, true, false, testutil.HeapRows(cat.Disk())); err != nil {
		t.Fatal(err)
	}
	return &env{disk: disk, cat: cat, mgr: lock.NewManager(), reg: NewRegistry()}, tab
}

func (e *env) begin() *Txn { return New(e.mgr.Begin(), e.disk, e.reg.Begin()) }

func row(k int64, v string) value.Row {
	return value.Row{value.NewInt(k), value.NewString(v)}
}

// dump reads every live tuple of tab in physical order.
func dump(t *testing.T, e *env, tab *catalog.Table) []value.Row {
	t.Helper()
	var out []value.Row
	for _, pid := range tab.Segment.Pages() {
		p := e.disk.Page(pid)
		for s := uint16(0); s < p.NumSlots(); s++ {
			h, r, rel, ok, err := p.ReadVersioned(s)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || rel != tab.ID || h.Xmax != 0 {
				continue
			}
			out = append(out, r)
		}
	}
	return out
}

func TestUndoToMarkRevertsStatement(t *testing.T) {
	e, tab := newEnv(t)
	tx := e.begin()
	if _, err := tx.Insert(tab, row(1, "keep"), storage.NoPrevTID); err != nil {
		t.Fatal(err)
	}
	before := dump(t, e, tab)
	mark := tx.Mark()

	// A failing "statement": one insert, one delete, then abort.
	tid2, err := tx.Insert(tab, row(2, "doomed"), storage.NoPrevTID)
	if err != nil {
		t.Fatal(err)
	}
	_ = tid2
	tids := tabTIDs(t, e, tab)
	if err := tx.Delete(tab, tids[0], before[0]); err != nil {
		t.Fatal(err)
	}
	if err := tx.UndoTo(mark); err != nil {
		t.Fatal(err)
	}
	after := dump(t, e, tab)
	if len(after) != 1 || after[0][0].Int != 1 || after[0][1].Str != "keep" {
		t.Fatalf("after undo-to-mark: %v", after)
	}
	// The unique index must be consistent again: re-inserting key 1 fails,
	// key 2 succeeds.
	if _, err := tx.Insert(tab, row(1, "dup"), storage.NoPrevTID); err == nil {
		t.Fatal("unique key restored by undo must reject duplicates")
	}
	if _, err := tx.Insert(tab, row(2, "fresh"), storage.NoPrevTID); err != nil {
		t.Fatalf("key 2 should be free again after undo: %v", err)
	}
}

func tabTIDs(t *testing.T, e *env, tab *catalog.Table) []storage.TID {
	t.Helper()
	var out []storage.TID
	for _, pid := range tab.Segment.Pages() {
		p := e.disk.Page(pid)
		for s := uint16(0); s < p.NumSlots(); s++ {
			if _, rel, ok := p.Record(s); ok && rel == tab.ID {
				out = append(out, storage.TID{Page: pid, Slot: s})
			}
		}
	}
	return out
}

func TestUndoAllEmptiesLog(t *testing.T) {
	e, tab := newEnv(t)
	tx := e.begin()
	for i := int64(0); i < 5; i++ {
		if _, err := tx.Insert(tab, row(i, "x"), storage.NoPrevTID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.UndoAll(); err != nil {
		t.Fatal(err)
	}
	if got := dump(t, e, tab); len(got) != 0 {
		t.Fatalf("rows after UndoAll: %v", got)
	}
	// Second undo is a no-op over the truncated log.
	if err := tx.UndoAll(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultHookFailsBeforeMutating(t *testing.T) {
	e, tab := newEnv(t)
	tx := e.begin()
	if _, err := tx.Insert(tab, row(1, "a"), storage.NoPrevTID); err != nil {
		t.Fatal(err)
	}
	tx.SetFault(FailNth(2))
	_, err := tx.Insert(tab, row(2, "b"), storage.NoPrevTID)
	if !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault", err)
	}
	// The failed mutation must not have touched the table: key 2 is free.
	tx.SetFault(nil)
	if _, err := tx.Insert(tab, row(2, "b"), storage.NoPrevTID); err != nil {
		t.Fatalf("faulted mutation left state behind: %v", err)
	}
	if got := len(dump(t, e, tab)); got != 2 {
		t.Fatalf("live rows = %d, want 2", got)
	}
}

func TestStateMachine(t *testing.T) {
	e, _ := newEnv(t)
	tx := e.begin()
	if tx.State() != Active {
		t.Fatalf("new txn state = %v", tx.State())
	}
	tx.MarkAborted()
	if tx.State() != Aborted {
		t.Fatalf("state = %v after abort", tx.State())
	}
	tx.Finish()
	if tx.State() != Finished {
		t.Fatalf("state = %v after finish", tx.State())
	}
	if Active.String() != "active" || Aborted.String() != "aborted" || Finished.String() != "finished" {
		t.Fatal("state names")
	}
}
