package invariant

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sae/internal/engine"
)

// joinRun drives one synthetic engine run through a's hooks: seeded events
// of several types, a few slot launches and releases, and n releases with no
// launch, each a slot-conservation violation at the event stream's offset.
func joinRun(a engine.Audit, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	a.BeginRun([]bool{true, true, true})
	types := []string{engine.TraceTaskLaunch, engine.TraceTaskEnd, engine.TraceResize, engine.TraceSpeculate, engine.TraceBlacklist}
	at := 0.0
	for i := range 20 + rng.Intn(20) {
		at += float64(rng.Float64()) // the conversion rounds: no fused multiply-add
		a.Event(engine.TraceEvent{At: at, Type: types[rng.Intn(len(types))], Job: 0, Stage: -1, Task: -1, Exec: -1})
		if i < n {
			a.SlotReleased(rng.Intn(3), 0)
		}
	}
	for range n - 20 {
		a.SlotReleased(rng.Intn(3), 0)
	}
	if rng.Intn(2) == 0 {
		a.SlotLaunched(1, 0)
		a.SlotReleased(1, 0)
	}
	a.EndRun()
}

// TestJoinMatchesSequentialAuditor: an auditor whose runs went one after
// another, and one that observed its first run itself and the rest through
// children — forked up front, run in reverse, joined in order, one of them
// holding runs of its own and of a grandchild joined into it — end with the
// same violations (Run renumbered past the runs before, the cap crossed in a
// child that starts below it, another child's whole stream past it), the
// same Dropped and the same coverage, and the run, offset and instant a
// violation flagged after them would carry. A second round takes its
// children back off the spares.
func TestJoinMatchesSequentialAuditor(t *testing.T) {
	// Violations per run: the cap (256) is crossed inside the fourth run,
	// and the fifth starts past it.
	counts := []int{40, 0, 150, 120, 30, 7}
	seq := New()
	for i, n := range counts {
		joinRun(seq, int64(i), n)
	}
	for round := range 2 {
		a := New()
		joinRun(a, 0, counts[0])
		kids := []engine.Audit{a.Fork(), a.Fork(), a.Fork()}
		joinRun(kids[2], 5, counts[5])
		joinRun(kids[2].(engine.ForkableAudit).Fork(), -1, 0) // a stray child, never joined
		grand := kids[1].(engine.ForkableAudit).Fork()
		joinRun(grand, 4, counts[4])
		joinRun(kids[1], 3, counts[3])
		kids[1].(engine.ForkableAudit).Join(grand)
		joinRun(kids[0], 1, counts[1])
		joinRun(kids[0], 2, counts[2])
		for _, k := range kids {
			a.Join(k)
		}
		if !reflect.DeepEqual(a.Violations(), seq.Violations()) {
			t.Fatalf("round %d: joined violations differ from the sequential auditor's:\n%v\nwant\n%v", round, a.Violations(), seq.Violations())
		}
		if a.Dropped() != seq.Dropped() || seq.Dropped() == 0 {
			t.Errorf("round %d: dropped %d, want %d (and some)", round, a.Dropped(), seq.Dropped())
		}
		if got, want := fmt.Sprint(a.Coverage()), fmt.Sprint(seq.Coverage()); got != want {
			t.Errorf("round %d: coverage %s, want %s", round, got, want)
		}
		if a.run != seq.run || a.offset != seq.offset || a.at != seq.at {
			t.Errorf("round %d: ends at run %d offset %d @%v, want run %d offset %d @%v", round, a.run, a.offset, a.at, seq.run, seq.offset, seq.at)
		}
	}
}
