// The rsiclose cases: every function is one path shape the analyzer must
// get right — leaks flagged, closes / escapes / error guards not.
package exec

import (
	"errors"

	"fixture/lock"
	"fixture/rss"
)

var errBusy = errors.New("busy")

func tooBig() bool { return false }

// The canonical leak: an early return between acquire and release.
func leakEarlyReturn(m *lock.Manager) error {
	h, err := m.AcquireContext()
	if err != nil {
		return err // the acquisition's own failure path: exempt
	}
	if tooBig() {
		return errBusy // want "h acquired from AcquireContext .* may not be released on this return path"
	}
	h.Release()
	return nil
}

// A resource that is simply never released.
func neverReleased(m *lock.Manager) {
	h := m.Acquire() // want "h acquired from Acquire is never released"
	h.ID()
}

// Open-protocol leak: scan opened, then an error return skips the close.
func leakAfterOpen(s *rss.Scan) error {
	if err := s.Open(); err != nil {
		return err // exempt: Open failed, nothing to close
	}
	if tooBig() {
		return errBusy // want "s acquired from s.Open .* may not be closed on this return path"
	}
	return s.Close()
}

// A deferred close anywhere in the function covers every path...
func deferredClose(m *lock.Manager) error {
	h, err := m.AcquireContext()
	if err != nil {
		return err
	}
	defer h.Release()
	if tooBig() {
		return errBusy
	}
	return nil
}

// ...including a defer registered before the Open it covers (the
// blockCtx.run pattern in the real executor).
func deferBeforeOpen(s *rss.Scan) error {
	defer func() { _ = s.Close() }()
	if err := s.Open(); err != nil {
		return err
	}
	_, _, err := s.Next()
	return err
}

// Closing on both arms of a branch satisfies both paths.
func closeBothArms(m *lock.Manager) error {
	h, err := m.AcquireContext()
	if err != nil {
		return err
	}
	if tooBig() {
		h.Release()
		return errBusy
	}
	h.Release()
	return nil
}

// Returning the resource transfers ownership to the caller.
func handOut() (*rss.Scan, error) {
	s, err := rss.OpenSegScan()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Storing the resource into another value transfers ownership too.
type cursor struct{ scan *rss.Scan }

func stash(c *cursor) error {
	s, err := rss.OpenSegScan()
	if err != nil {
		return err
	}
	c.scan = s
	return nil
}

// Rebinding the acquisition's error variable invalidates the guard: the
// second `err != nil` return no longer means "nothing was acquired".
func reboundErr(m *lock.Manager) error {
	h, err := m.AcquireContext()
	if err != nil {
		return err
	}
	err = probe()
	if err != nil {
		return err // want "h acquired from AcquireContext .* may not be released on this return path"
	}
	h.Release()
	return nil
}

func probe() error { return nil }

// Closed just before break: the loop's only exit is the break, so the
// return after a for {} sees the scan closed.
func closeThenBreak(s *rss.Scan) error {
	if err := s.Open(); err != nil {
		return err
	}
	for {
		_, ok, err := s.Next()
		if err != nil || !ok {
			s.Close()
			break
		}
	}
	return nil
}

// Every select clause closes, so every path out of the select is closed.
func selectCloses(s *rss.Scan, ch chan int) error {
	if err := s.Open(); err != nil {
		return err
	}
	select {
	case <-ch:
		s.Close()
	default:
		s.Close()
	}
	return nil
}

// A break leaves the loop with the scan open.
func breakLeak(s *rss.Scan) error {
	if err := s.Open(); err != nil {
		return err
	}
	for {
		if _, ok, _ := s.Next(); !ok {
			break
		}
	}
	return nil // want "s acquired from s.Open .* may not be closed on this return path"
}

// A continue goes back to the loop head, not out of the loop: the open
// scan at the continue never reaches the return.
func skipContinue(s *rss.Scan) error {
	if err := s.Open(); err != nil {
		return err
	}
	for {
		row, ok, _ := s.Next()
		if !ok {
			s.Close()
			break
		}
		if len(row) == 0 {
			continue
		}
	}
	return nil
}

// A labeled break leaves the labeled loop, not the select it sits in.
func labeledBreakCloses(s *rss.Scan, ch chan int) error {
	if err := s.Open(); err != nil {
		return err
	}
drain:
	for {
		select {
		case <-ch:
			s.Close()
			break drain
		default:
		}
	}
	return nil
}

// ...so a labeled break with the scan open reaches the return after the
// loop.
func labeledBreakLeak(s *rss.Scan, ch chan int) error {
	if err := s.Open(); err != nil {
		return err
	}
drain:
	for {
		select {
		case <-ch:
			break drain
		default:
		}
	}
	return nil // want "s acquired from s.Open .* may not be closed on this return path"
}

// A grant taken in a range body and never released: the paths that loop
// back reach the loop's exit, so the return after it is flagged. The body
// is walked twice (the second time from the held loop head); the early
// return is reported once.
func rangeLeak(m *lock.Manager, n []int) error {
	for range n {
		h, err := m.AcquireContext()
		if err != nil {
			return err
		}
		if tooBig() {
			return errBusy // want "h acquired from AcquireContext .* may not be released on this return path"
		}
		h.ID()
	}
	return nil // want "h acquired from AcquireContext .* may not be released on this return path"
}

// ...and a function that falls off the end after such a loop never
// releases it.
func rangeNeverReleased(m *lock.Manager, n []int) {
	for range n {
		h := m.Acquire() // want "h acquired from Acquire is never released"
		h.ID()
	}
}

// A continue of a range loop goes to the loop head, and from there out of
// the loop, with the grant held.
func rangeContinueLeak(m *lock.Manager, n []int) error {
	for i := range n {
		h, err := m.AcquireContext()
		if err != nil {
			return err
		}
		if i == 0 {
			continue
		}
		h.Release()
	}
	return nil // want "h acquired from AcquireContext .* may not be released on this return path"
}

// A for {} that breaks before its acquisition: on a later iteration the
// break leaves the previous iteration's grant held.
func breakBeforeAcquire(m *lock.Manager) error {
	for {
		if tooBig() {
			break
		}
		h, err := m.AcquireContext()
		if err != nil {
			return err
		}
		h.ID()
	}
	return nil // want "h acquired from AcquireContext .* may not be released on this return path"
}

// The same loop releasing before it loops back holds nothing at the break.
func breakBeforeAcquireReleased(m *lock.Manager) error {
	for {
		if tooBig() {
			break
		}
		h, err := m.AcquireContext()
		if err != nil {
			return err
		}
		h.Release()
	}
	return nil
}

// An immediately invoked literal that defers the close covers every path.
func closureDefersClose(s *rss.Scan) error {
	if err := s.Open(); err != nil {
		return err
	}
	func() {
		defer s.Close()
		s.Next()
	}()
	return nil
}

// A release on the acquisition's own failure path does not count: the
// grant is never released.
func releaseOnlyOnFailure(m *lock.Manager) {
	h, err := m.AcquireContext() // want "h acquired from AcquireContext is never released"
	if err != nil {
		h.Release()
		return
	}
	h.ID()
}

// Rebinding err on the failure path leaves a later guard on it exempt.
func wrapThenGuard(m *lock.Manager) error {
	h, err := m.AcquireContext()
	if err != nil {
		err = errors.Join(errBusy, err)
	}
	if err != nil {
		return err
	}
	h.Release()
	return nil
}
