package exp

import (
	"fmt"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/workloads"
)

// TestParallelEnginesMatchSequential: engines on several goroutines take their
// run spares — the driver's tables, the kernel's events, the devices' stream
// tables, the mailboxes' queues — from one pool and give them back there, so
// the machine one worker's run released is another worker's next. A small
// static sweep over clusters of three sizes, HDD and SSD, one of them with an
// executor crashing mid-stage, must render on four workers byte for byte as
// it does one run after another. CI runs it under -race.
func TestParallelEnginesMatchSequential(t *testing.T) {
	crash := &chaos.Plan{Name: "crash", Crashes: []chaos.Crash{{Exec: 1, At: 3 * time.Second, RestartAfter: 4 * time.Second}}}
	setups := []Setup{
		Default().WithScale(0.02),
		Default().WithScale(0.02).WithNodes(8).WithSSD(),
		Default().WithScale(0.02).WithNodes(3).WithFaults(crash),
		Default().WithScale(0.02).WithNodes(6).WithSSD().WithFaults(crash),
	}
	var tasks []Task
	for i, s := range setups {
		for _, w := range []func(workloads.Config) *workloads.Spec{workloads.Terasort, workloads.Aggregation} {
			tasks = append(tasks, Task{ID: fmt.Sprintf("setup %d %s", i, w(s.workloadConfig()).Name),
				Run: func() (fmt.Stringer, error) { return StaticSweep(s, w) }})
		}
	}
	seq, par := RunParallel(1, tasks), RunParallel(4, tasks)
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("%s: sequential error %v, parallel error %v", seq[i].ID, seq[i].Err, par[i].Err)
		}
		if got, want := par[i].Result.String(), seq[i].Result.String(); got != want {
			t.Errorf("%s: on four workers\n%s\none after another\n%s", seq[i].ID, got, want)
		}
	}
}
