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
)

// testBug names the currently enabled defect (unset or "" = none).
var testBug atomic.Value

// EnableTestBug turns on a named defect and returns a restore func. It
// panics on unknown names so a typo cannot silently test nothing.
func EnableTestBug(name string) (restore func()) {
	switch name {
	case bugSkipSlotReclaim:
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
