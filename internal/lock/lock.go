// Package lock implements the locking component of the RSS (Section 3 lists
// "locking (in a multi-user environment)" among the storage system's
// responsibilities). Granularity is reduced to table-level shared/exclusive
// locks — a documented simplification (DESIGN.md): access path selection does
// not depend on lock granularity, and the engine's measurements assume a
// single active statement.
//
// Locks are owned by transactions (Txn), granted for the transaction's whole
// lifetime and released together at commit or rollback — strict two-phase
// locking. A single statement outside an explicit transaction runs as an
// ephemeral transaction of its own (the Manager's Acquire/Held surface), so
// autocommit keeps the old statement-scope behavior.
//
// Statement-scope locking was deadlock-free by total ordering: each statement
// requested all of its locks up front in sorted table order. Transactions
// acquire locks incrementally across statements, so cycles are possible. The
// manager therefore detects deadlocks with a wait-for-graph search run at
// every blocking wait, aborts the youngest transaction on the cycle (the one
// that has done the least work), and surfaces the typed, retryable
// ErrDeadlock. A configurable lock-wait timeout (ErrLockTimeout) backstops
// anything detection cannot see, e.g. an application that simply never
// commits. Waits remain context-aware, so a statement deadline or
// cancellation also bounds how long a writer can sit behind a stuck reader.
package lock

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDeadlock reports that the transaction was chosen as the deadlock
// victim: its locks were (or are about to be) rolled back, and the whole
// transaction should be retried. It is typed so callers can dispatch with
// errors.Is and distinguish it from cancellation.
var ErrDeadlock = errors.New("lock: deadlock detected; transaction chosen as victim, retry it")

// ErrLockTimeout reports that a lock wait exceeded the manager's configured
// timeout — the fallback for waits the deadlock detector cannot resolve
// (e.g. a transaction that never commits).
var ErrLockTimeout = errors.New("lock: lock wait timeout exceeded")

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits one writer and excludes readers.
	Exclusive
)

// Request names one table and the required mode.
type Request struct {
	Table string
	Mode  Mode
}

// Manager grants table locks to transactions.
type Manager struct {
	mu     sync.Mutex
	tables map[string]*tableLock
	// wake is closed and replaced on every release — a broadcast that
	// waiters can select on together with their context's Done channel
	// (the reason this is a channel rather than a sync.Cond).
	wake chan struct{}
	// timeout, when positive, bounds each acquisition's total blocked time.
	timeout time.Duration
	// waitObs, when set, observes how long each acquisition that had to
	// block waited in total (metrics hook). Holds a func(time.Duration).
	waitObs atomic.Value

	nextID    atomic.Int64
	deadlocks atomic.Int64
	timeouts  atomic.Int64
}

// tableLock records which transactions hold one table, and in which mode. A
// transaction appears at most once per table (Exclusive shadows Shared).
type tableLock struct {
	holders map[*Txn]Mode
}

// NewManager creates an empty lock manager.
func NewManager() *Manager {
	return &Manager{tables: make(map[string]*tableLock), wake: make(chan struct{})}
}

// SetLockTimeout bounds every acquisition's total blocked time; exceeding it
// fails the acquisition with ErrLockTimeout. Zero (the default) disables the
// timeout — deadlock detection already resolves cycles, the timeout is the
// fallback for indefinite non-cyclic waits.
func (m *Manager) SetLockTimeout(d time.Duration) {
	m.mu.Lock()
	m.timeout = d
	m.mu.Unlock()
}

// Deadlocks returns how many deadlock victims the manager has aborted.
func (m *Manager) Deadlocks() int64 { return m.deadlocks.Load() }

// LockTimeouts returns how many acquisitions failed with ErrLockTimeout.
func (m *Manager) LockTimeouts() int64 { return m.timeouts.Load() }

// Txn is one transaction's lock ownership: the unit locks are granted to and
// released from. Grants are re-entrant (a held table is not re-acquired) and
// upgradeable (Shared to Exclusive once no other holder remains). A Txn is
// used by one goroutine at a time, like the session that owns it.
type Txn struct {
	mgr *Manager
	id  int64

	// The fields below are guarded by mgr.mu.
	held     map[string]Mode
	wanted   *Request // non-nil while blocked in AcquireContext
	abortErr error    // set once when chosen as a deadlock victim
	released bool     // ReleaseAll ran

	// abort is closed (once) when the deadlock detector picks this
	// transaction as the victim; its blocked AcquireContext selects on it.
	abort chan struct{}
}

// Begin registers a new lock-owning transaction. IDs are monotonic, so a
// larger ID means a younger transaction — the deadlock victim policy.
func (m *Manager) Begin() *Txn {
	return &Txn{
		mgr:   m,
		id:    m.nextID.Add(1),
		held:  make(map[string]Mode),
		abort: make(chan struct{}),
	}
}

// ID returns the transaction's monotonic identifier.
func (t *Txn) ID() int64 { return t.id }

// SetWaitObserver installs fn (nil removes it) to be called once per
// acquisition that had to block, with the total time spent waiting. The
// observer runs outside the manager's mutex, after the wait ends — whether
// the acquisition succeeded or was canceled.
func (m *Manager) SetWaitObserver(fn func(time.Duration)) {
	m.waitObs.Store(waitObserver{fn})
}

// waitObserver wraps the callback so atomic.Value always stores one
// consistent concrete type (a bare nil func would panic the Store).
type waitObserver struct {
	fn func(time.Duration)
}

func (m *Manager) observeWait(start time.Time) {
	if start.IsZero() {
		return
	}
	if obs, ok := m.waitObs.Load().(waitObserver); ok && obs.fn != nil {
		obs.fn(time.Since(start))
	}
}

// grant records what one AcquireContext call changed, so a failing call can
// roll back exactly its own grants (a deadlock victim's earlier-statement
// locks are the engine's to release, after undo).
type grant struct {
	table    string
	upgraded bool // held Shared before this call; else held nothing
}

// AcquireContext blocks until every requested lock is granted to the
// transaction. Duplicate tables are collapsed (exclusive wins) and grants
// happen in sorted order; tables the transaction already holds in a
// sufficient mode are skipped, and Shared-to-Exclusive upgrades wait for the
// other holders to drain. On failure — context done, lock timeout, or this
// transaction chosen as a deadlock victim — the locks granted by this call
// (upgrades included) are rolled back and the error is returned; locks from
// earlier calls stay held.
func (t *Txn) AcquireContext(ctx context.Context, reqs []Request) error {
	m := t.mgr
	normalized := normalize(reqs)
	if err := ctx.Err(); err != nil {
		return err
	}
	var waitStart time.Time // zero until the first blocking wait
	var timer *time.Timer
	var timeoutCh <-chan time.Time
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	var granted []grant
	m.mu.Lock()
	// fail rolls back this call's grants and returns err. Called with m.mu
	// held; returns with it released.
	fail := func(err error) error {
		t.wanted = nil
		for _, g := range granted {
			if g.upgraded {
				m.tables[g.table].holders[t] = Shared
				t.held[g.table] = Shared
			} else {
				delete(m.tables[g.table].holders, t)
				delete(t.held, g.table)
			}
		}
		m.broadcastLocked()
		m.mu.Unlock()
		m.observeWait(waitStart)
		return err
	}
	if t.released {
		m.mu.Unlock()
		return fmt.Errorf("lock: acquire on a released transaction")
	}
	for _, r := range normalized {
		if cur, ok := t.held[r.Table]; ok && (cur == Exclusive || cur == r.Mode) {
			continue
		}
		for {
			if t.abortErr != nil {
				return fail(t.abortErr)
			}
			if m.grantableLocked(t, r) {
				break
			}
			if waitStart.IsZero() {
				waitStart = time.Now()
				if m.timeout > 0 {
					timer = time.NewTimer(m.timeout)
					timeoutCh = timer.C
				}
			}
			t.wanted = &Request{Table: r.Table, Mode: r.Mode}
			if victim := m.detectLocked(t); victim != nil {
				m.deadlocks.Add(1)
				victim.abortErr = fmt.Errorf("%w (txn %d waiting for %s)",
					ErrDeadlock, victim.id, victim.wanted.Table)
				close(victim.abort)
				if victim == t {
					return fail(t.abortErr)
				}
			}
			wake := m.wake
			m.mu.Unlock()
			select {
			case <-ctx.Done():
				m.mu.Lock()
				return fail(ctx.Err())
			case <-t.abort:
				m.mu.Lock()
				return fail(t.abortErr)
			case <-timeoutCh:
				m.mu.Lock()
				m.timeouts.Add(1)
				return fail(fmt.Errorf("%w waiting for %s", ErrLockTimeout, r.Table))
			case <-wake:
			}
			m.mu.Lock()
		}
		t.wanted = nil
		prev, had := t.held[r.Table]
		m.entry(r.Table).holders[t] = r.Mode
		t.held[r.Table] = r.Mode
		granted = append(granted, grant{table: r.Table, upgraded: had && prev == Shared})
	}
	m.mu.Unlock()
	m.observeWait(waitStart)
	return nil
}

// ReleaseAll returns every lock the transaction holds and wakes all waiters.
// Safe to call repeatedly; the transaction cannot acquire again afterwards.
func (t *Txn) ReleaseAll() {
	m := t.mgr
	m.mu.Lock()
	if t.released {
		m.mu.Unlock()
		return
	}
	t.released = true
	for table := range t.held {
		delete(m.tables[table].holders, t)
	}
	t.held = make(map[string]Mode)
	m.broadcastLocked()
	m.mu.Unlock()
}

// conflictsWith reports whether a requested mode conflicts with a mode held
// by a different transaction.
func conflictsWith(want, held Mode) bool {
	return want == Exclusive || held == Exclusive
}

// grantableLocked reports whether t can be granted r now: only other
// transactions' holdings conflict (re-entry and upgrade look past t's own).
// Callers hold m.mu.
func (m *Manager) grantableLocked(t *Txn, r Request) bool {
	e, ok := m.tables[r.Table]
	if !ok {
		return true
	}
	for h, mode := range e.holders {
		if h == t {
			continue
		}
		if conflictsWith(r.Mode, mode) {
			return false
		}
	}
	return true
}

// detectLocked searches the wait-for graph for a cycle created by start's
// wait edge and returns the victim to abort — the youngest (largest-ID)
// transaction on the cycle — or nil when start's wait is acyclic. Edges run
// from a blocked transaction to each conflicting holder of the table it
// waits for; transactions already marked as victims are skipped (they will
// wake and release), so one deadlock never claims two victims. Because
// detection runs at every wait and only start's edge is new, any new cycle
// passes through start. Callers hold m.mu.
func (m *Manager) detectLocked(start *Txn) *Txn {
	var cycle []*Txn
	seen := make(map[*Txn]bool)
	var dfs func(t *Txn, path []*Txn) bool
	dfs = func(t *Txn, path []*Txn) bool {
		if t.abortErr != nil || t.wanted == nil {
			return false // not blocked, or already dying: no outgoing edges
		}
		e, ok := m.tables[t.wanted.Table]
		if !ok {
			return false
		}
		path = append(path, t)
		for h, mode := range e.holders {
			if h == t || !conflictsWith(t.wanted.Mode, mode) {
				continue
			}
			if h == start {
				cycle = append([]*Txn(nil), path...)
				return true
			}
			if seen[h] {
				continue
			}
			seen[h] = true
			if dfs(h, path) {
				return true
			}
		}
		return false
	}
	if !dfs(start, nil) {
		return nil
	}
	victim := cycle[0]
	for _, t := range cycle {
		if t.id > victim.id {
			victim = t
		}
	}
	return victim
}

// ---- statement-scope compatibility surface ----
//
// Work that is not a statement — preparing one, dumping the database,
// vacuum — locks through an ephemeral transaction created per call: Acquire
// returns a Held whose Release is the ephemeral transaction's ReleaseAll.

// Held represents one ephemeral transaction's granted locks; Release returns
// them. Safe to Release repeatedly.
type Held struct {
	txn *Txn
}

// Acquire blocks until every requested lock is granted. Duplicate tables are
// collapsed (exclusive wins); grants happen in sorted order.
func (m *Manager) Acquire(reqs []Request) *Held {
	h, _ := m.AcquireContext(context.Background(), reqs)
	return h
}

// AcquireContext is Acquire observing ctx: when ctx is done before every
// lock is granted, any locks granted so far are returned and the context's
// error is reported. The acquisition can also fail with ErrDeadlock (chosen
// as a victim of a cycle with concurrent transactions) or ErrLockTimeout.
// On success the returned error is nil.
func (m *Manager) AcquireContext(ctx context.Context, reqs []Request) (*Held, error) {
	t := m.Begin()
	if err := t.AcquireContext(ctx, reqs); err != nil {
		return nil, err
	}
	return &Held{txn: t}, nil
}

// TryAcquire attempts a non-blocking grant of all requests; it returns nil
// when any lock is unavailable.
func (m *Manager) TryAcquire(reqs []Request) *Held {
	t := m.Begin()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range normalize(reqs) {
		if !m.grantableLocked(t, r) {
			for table := range t.held {
				delete(m.tables[table].holders, t)
			}
			return nil
		}
		m.entry(r.Table).holders[t] = r.Mode
		t.held[r.Table] = r.Mode
	}
	return &Held{txn: t}
}

// Release returns the locks. Safe to call repeatedly.
func (h *Held) Release() {
	if h == nil {
		return
	}
	h.txn.ReleaseAll()
}

// broadcastLocked wakes every waiter. Callers hold m.mu.
func (m *Manager) broadcastLocked() {
	close(m.wake)
	m.wake = make(chan struct{})
}

func normalize(reqs []Request) []Request {
	byTable := make(map[string]Mode, len(reqs))
	for _, r := range reqs {
		name := strings.ToUpper(r.Table)
		if cur, ok := byTable[name]; !ok || r.Mode == Exclusive && cur == Shared {
			byTable[name] = r.Mode
		}
	}
	out := make([]Request, 0, len(byTable))
	for name, mode := range byTable {
		out = append(out, Request{Table: name, Mode: mode})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

func (m *Manager) entry(name string) *tableLock {
	e, ok := m.tables[name]
	if !ok {
		e = &tableLock{holders: make(map[*Txn]Mode)}
		m.tables[name] = e
	}
	return e
}

// Holders reports the current reader count and writer flag for a table
// (testing/inspection).
func (m *Manager) Holders(table string) (readers int, writer bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.tables[strings.ToUpper(table)]
	if !ok {
		return 0, false
	}
	for _, mode := range e.holders {
		if mode == Exclusive {
			writer = true
		} else {
			readers++
		}
	}
	return readers, writer
}

// Outstanding returns the total number of currently granted locks across all
// tables (each holder counts one per table held). Leak checks assert it
// returns to zero after every statement outside explicit transactions.
func (m *Manager) Outstanding() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.tables {
		n += len(e.holders)
	}
	return n
}
