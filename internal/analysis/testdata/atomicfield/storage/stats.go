// Package storage holds the counters for the typed-atomics row of the
// layering analyzer. IOStats is the function-form style the row forbids:
// Fetches is touched through sync/atomic here and written plainly in
// reset, the mixed access that races. Counters is the sanctioned style.
package storage

import "sync/atomic"

type IOStats struct {
	Fetches int64
	Misses  int64
	Flags   uint32
}

// Record and Snapshot use the function forms: each call is a finding.
func (s *IOStats) Record() {
	atomic.AddInt64(&s.Fetches, 1) // want "atomic.AddInt64 makes a field atomic only by convention"
}

func (s *IOStats) Snapshot() int64 {
	return atomic.LoadInt64(&s.Fetches) // want "atomic.LoadInt64 makes a field atomic only by convention"
}

// reset writes the same field plainly: the race the row exists to prevent,
// flagged at the function-form calls above.
func (s *IOStats) reset() {
	s.Fetches = 0
}

// The remaining function forms are flagged the same way.
func (s *IOStats) SetFlag() bool {
	atomic.StoreUint32(&s.Flags, 1)                    // want "atomic.StoreUint32 makes a field atomic only by convention"
	return atomic.CompareAndSwapInt64(&s.Misses, 0, 1) // want "atomic.CompareAndSwapInt64 makes a field atomic only by convention"
}

// Counters declares its fields with sync/atomic types: they have no plain
// access form, so nothing here is a finding.
type Counters struct {
	Fetches atomic.Int64
	Ready   atomic.Bool
}

func (c *Counters) Record() {
	c.Fetches.Add(1)
	c.Ready.Store(true)
}

func (c *Counters) Snapshot() int64 {
	if !c.Ready.Load() {
		return 0
	}
	return c.Fetches.Load()
}

func (c *Counters) Reset() bool {
	return c.Fetches.CompareAndSwap(c.Fetches.Load(), 0)
}
