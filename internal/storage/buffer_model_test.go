package storage

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// listPool is the reference model of BufferPool's replacement policy: the
// container/list LRU the pool was first written with (front = most recently
// used, victim = back). It models only what the policy decides — hit or
// miss, which page is evicted, what stays resident — and the fault schedule
// that decides whether a missed Fetch installs the page.
type listPool struct {
	capacity  int
	lru       *list.List
	resident  map[PageID]*list.Element
	injector  FaultInjector
	fetchN    int64
	evictions int64
}

func newListPool(capacity int, fi FaultInjector) *listPool {
	return &listPool{capacity: capacity, lru: list.New(), resident: map[PageID]*list.Element{}, injector: fi}
}

// access is one Get/Touch (injectable=false) or Fetch (true); it reports a
// miss and the fault, if any.
func (m *listPool) access(id PageID, injectable bool) (miss bool, err error) {
	if el, ok := m.resident[id]; ok {
		m.lru.MoveToFront(el)
		return false, nil
	}
	if injectable && m.injector != nil {
		m.fetchN++
		if err := m.injector.PageFetch(m.fetchN, id); err != nil {
			return true, err
		}
	}
	if m.lru.Len() >= m.capacity {
		oldest := m.lru.Back()
		m.lru.Remove(oldest)
		delete(m.resident, oldest.Value.(PageID))
		m.evictions++
	}
	m.resident[id] = m.lru.PushFront(id)
	return true, nil
}

func (m *listPool) evict(id PageID) {
	if el, ok := m.resident[id]; ok {
		m.lru.Remove(el)
		delete(m.resident, id)
	}
}

func (m *listPool) flush() {
	m.lru.Init()
	m.resident = map[PageID]*list.Element{}
}

// everyKth fails every k-th fetch: a deterministic schedule that exercises
// the failed-miss path many times in one sequence.
type everyKth int64

func (k everyKth) PageFetch(n int64, id PageID) error {
	if n%int64(k) == 0 {
		return fmt.Errorf("%w: fetch #%d", ErrInjectedFault, n)
	}
	return nil
}

// TestBufferPoolMatchesListModel drives the intrusive-array pool and the
// list model with the same random sequences of Get, Fetch, Touch, Evict,
// Flush and MarkWritten. Every access must agree on hit or miss and on the
// fault, and after every operation both must agree on Evictions and on the
// residency of every page — so the pool evicts exactly the model's victims
// and no measured page-fetch count can differ between the two.
func TestBufferPoolMatchesListModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(25))
	for trial := 0; trial < 200; trial++ {
		disk := NewDisk()
		var ids []PageID
		for i := 0; i < 12; i++ {
			if i%4 == 3 {
				ids = append(ids, disk.AllocVirtual())
				continue
			}
			id, _ := disk.AllocPage()
			ids = append(ids, id)
		}
		capacity := 1 + rnd.Intn(8)
		var fi FaultInjector
		if trial%3 == 0 {
			fi = everyKth(2 + rnd.Intn(5))
		}
		stats := &IOStats{}
		pool := NewBufferPool(disk, capacity, stats)
		pool.SetFaultInjector(fi)
		model := newListPool(capacity, fi)

		for step := 0; step < 400; step++ {
			id := ids[rnd.Intn(len(ids))]
			var op string
			before := stats.Snapshot()
			wantMiss, wantErr := false, error(nil)
			var err error
			switch k := rnd.Intn(20); {
			case k < 6:
				op = "Get"
				wantMiss, wantErr = model.access(id, false)
				pool.Get(id)
			case k < 12:
				op = "Fetch"
				wantMiss, wantErr = model.access(id, true)
				_, err = pool.Fetch(id)
			case k < 16:
				op = "Touch"
				wantMiss, wantErr = model.access(id, false)
				pool.Touch(id)
			case k < 18:
				op = "Evict"
				model.evict(id)
				pool.Evict(id)
			case k < 19:
				op = "MarkWritten"
				pool.MarkWritten(id)
			default:
				op = "Flush"
				model.flush()
				pool.Flush()
			}
			where := fmt.Sprintf("trial %d step %d: %s(%d) capacity %d", trial, step, op, id, capacity)
			d := stats.Snapshot().Sub(before)
			switch op {
			case "Get", "Fetch", "Touch":
				if d.LogicalReads != 1 || (d.PageFetches == 1) != wantMiss {
					t.Fatalf("%s: pool counted %+v, model miss=%v", where, d, wantMiss)
				}
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s: pool err %v, model err %v", where, err, wantErr)
				}
			case "MarkWritten":
				if d.PagesWritten != 1 || d.LogicalReads != 0 {
					t.Fatalf("%s: pool counted %+v", where, d)
				}
			default:
				if d != (IOStatsSnapshot{}) {
					t.Fatalf("%s: pool counted %+v", where, d)
				}
			}
			if got := pool.Evictions(); got != model.evictions {
				t.Fatalf("%s: Evictions %d, model %d", where, got, model.evictions)
			}
			for _, p := range ids {
				_, want := model.resident[p]
				if got := pool.Resident(p); got != want {
					t.Fatalf("%s: Resident(%d) = %v, model %v", where, p, got, want)
				}
			}
		}
	}
}
