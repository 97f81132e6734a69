// Package engine reads the counters from across the package boundary. The
// row applies in every package, so the atomic half of a mixed access is
// flagged here too, even though the plain half lives in another package.
package engine

import (
	"sync/atomic"

	"fixture/storage"
)

// Report reads storage's function-form counter plainly.
func Report(s *storage.IOStats) int64 {
	return s.Fetches
}

// ReportAtomic mixes in the function form over the same field.
func ReportAtomic(s *storage.IOStats) int64 {
	return atomic.LoadInt64(&s.Fetches) // want "atomic.LoadInt64 makes a field atomic only by convention"
}

// Fresh constructs the struct; composite literals are no finding.
func Fresh() *storage.IOStats {
	return &storage.IOStats{Fetches: 0}
}

// Typed atomics are read through their methods only.
func ReportTyped(c *storage.Counters) int64 {
	return c.Fetches.Load() + c.Snapshot()
}
