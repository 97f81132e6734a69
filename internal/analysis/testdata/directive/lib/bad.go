// The misuse half of the directive fixture: well-formed directives that
// excuse nothing, directives for analyzers outside the running set, and
// the malformed shapes. The test asserts each reported line by marker
// because the flagged line is the directive itself, where no want comment
// can live.
package lib

// Quiet carries a well-formed, reasoned directive with nothing to excuse:
// reported as unused so stale excuses do not outlive their findings.
func Quiet() int {
	//sysrcheck:ignore nakedpanic fixture: nothing to excuse
	return 1
}

// NotRunning carries a directive for an analyzer outside this run's set;
// a partial run must leave it alone rather than condemn it unexercised.
func NotRunning() int {
	//sysrcheck:ignore govtick fixture: govtick is not in this run
	return 2
}

// Malformed shapes, each reported at its own line. A name outside the
// suite — a typo, or an analyzer since retired — would otherwise be
// skipped as "not running" forever.
func Malformed(x int) error {
	//sysrcheck:ignore
	//sysrcheck:ignore nakedpanic
	//sysrcheck:ignore nakedpanic,, fixture: empty name inside the list
	//sysrcheck:ignore govtik fixture: misspelled analyzer name
	//sysrcheck:ignore govprop fixture: retired analyzer name
	if x < 0 {
		return errBad
	}
	return nil
}
