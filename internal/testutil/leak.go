package testutil

// Robustness-layer leak accounting. Every RSI scan counts itself open on
// its buffer pool at Open and closed at Close; a test that finishes with a
// scan still open on its database's pool has leaked one (an executor exit
// path that skipped Close).

import (
	"testing"

	"systemr/internal/storage"
)

// AssertNoLeaks registers a cleanup that fails the test if it exits with
// an RSI scan still open over pool. Call it once the test's pool exists,
// in any test that executes queries.
func AssertNoLeaks(t testing.TB, pool *storage.BufferPool) {
	t.Helper()
	t.Cleanup(func() {
		if n := pool.OpenScans(); n != 0 {
			t.Errorf("scan leak: %d RSI scans still open at test end", n)
		}
	})
}
