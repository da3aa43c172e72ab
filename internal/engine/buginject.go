package engine

import "sync/atomic"

// Deliberately reintroducible defects used to mutation-test the invariant
// audit plane: a test enables one, runs the oracle (directly or via
// sae-hunt), and asserts the defect is caught. Production code never sets
// testBug. NewEngine reads it once into Engine.bug, so engines running on
// other goroutines never read the global, and the gates compile to a single
// string comparison on paths that are already off the per-event hot path.
const (
	// bugSkipSlotReclaim makes markLost leak the dead executor's
	// in-flight slot accounting instead of reclaiming it — the class of
	// bug the PR 3 exactly-once slot-reclaim work fixed.
	bugSkipSlotReclaim = "skip-slot-reclaim"
	// bugDropTaskBytes makes the driver leave an accepted attempt's disk
	// reads out of its job's report, which byte-conservation compares
	// with the sum of the attempts' own metrics.
	bugDropTaskBytes = "drop-task-bytes"
	// bugSilentSuspect makes the failure detector arm an executor's loss
	// timer without recording or tracing the suspicion, so the later
	// heartbeat-timeout loss has no standing suspicion behind it.
	bugSilentSuspect = "silent-suspect"
)

// testBug names the currently enabled defect (unset or "" = none).
var testBug atomic.Value

// EnableTestBug turns on a named defect and returns a restore func. It
// panics on unknown names so a typo cannot silently test nothing.
func EnableTestBug(name string) (restore func()) {
	switch name {
	case bugSkipSlotReclaim, bugDropTaskBytes, bugSilentSuspect:
	default:
		panic("engine: unknown test bug " + name)
	}
	prev := enabledBug()
	testBug.Store(name)
	return func() { testBug.Store(prev) }
}

// enabledBug returns the defect engines built now plant ("" = none).
func enabledBug() string {
	name, _ := testBug.Load().(string)
	return name
}
