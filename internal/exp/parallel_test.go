package exp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/core"
	"sae/internal/engine"
	"sae/internal/workloads"
)

// TestParallelEnginesMatchSequential: engines on several goroutines take their
// run spares — the driver's tables, the kernel's events, the devices' stream
// tables, the mailboxes' queues — from one stack and give them back there, and
// their file systems share input block tables through one list, so the machine
// one run released is another's next. Static sweeps over clusters of three
// sizes, HDD and SSD, some with an executor crashing mid-stage, fanned out over
// every (setup, workload) pair with each sweep's widths fanned out again, must
// render at GOMAXPROCS 4 byte for byte as at GOMAXPROCS 1, where every run
// waits for the one before. CI runs it under -race.
func TestParallelEnginesMatchSequential(t *testing.T) {
	crash := &chaos.Plan{Name: "crash", Crashes: []chaos.Crash{{Exec: 1, At: 3 * time.Second, RestartAfter: 4 * time.Second}}}
	setups := []Setup{
		Default().WithScale(0.02),
		Default().WithScale(0.02).WithNodes(8).WithSSD(),
		Default().WithScale(0.02).WithNodes(3).WithFaults(crash),
		Default().WithScale(0.02).WithNodes(6).WithSSD().WithFaults(crash),
	}
	mks := []func(workloads.Config) *workloads.Spec{workloads.Terasort, workloads.Aggregation}
	render := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out, err := each(Setup{}, len(setups)*len(mks), func(i int) (string, error) {
			res, err := StaticSweep(setups[i/len(mks)], mks[i%len(mks)])
			if err != nil {
				return "", err
			}
			return res.String(), nil
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		return out
	}
	seq, par := render(1), render(4)
	for i := range seq {
		if par[i] != seq[i] {
			t.Errorf("setup %d: at GOMAXPROCS 4\n%s\nat GOMAXPROCS 1\n%s", i/len(mks), par[i], seq[i])
		}
	}
}

// TestFanOutErrorsAsInOrder: of the calls of a fan-out that fail, the one a
// loop would stop at decides the error, whichever fails first. A width sweep
// whose every run fails — its fault plan names an executor the cluster lacks —
// returns the 32-thread run's error at GOMAXPROCS 4 as at 1, and of calls that
// fail after delays that reverse their order, the lowest index's error wins.
func TestFanOutErrorsAsInOrder(t *testing.T) {
	s := Default().WithScale(0.02).WithFaults(&chaos.Plan{Name: "absent", Crashes: []chaos.Crash{{Exec: 9, At: time.Second}}})
	var want string
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			_, err := StaticSweep(s, workloads.Terasort)
			if want == "" {
				want = fmt.Sprint(err)
			}
			if err == nil || fmt.Sprint(err) != want || !strings.Contains(want, "threads=32:") {
				t.Errorf("GOMAXPROCS %d: %v, want the 32-thread run's error %q", procs, err, want)
			}
			var mu sync.Mutex
			var called []int
			got, err := each(Setup{}, 6, func(i int) (int, error) {
				time.Sleep(time.Duration(6-i) * 5 * time.Millisecond)
				mu.Lock()
				called = append(called, i)
				mu.Unlock()
				if i%2 == 1 {
					return i, fmt.Errorf("call %d", i)
				}
				return i, nil
			})
			if got != nil || err == nil || err.Error() != "call 1" {
				t.Errorf("GOMAXPROCS %d: calls failing in the order %v return %v, %v; want none and call 1's error", procs, called, got, err)
			}
			got, err = each(Setup{}, 6, func(i int) (int, error) {
				time.Sleep(time.Duration(6-i) * time.Millisecond)
				return 10 * i, nil
			})
			if err != nil || fmt.Sprint(got) != "[0 10 20 30 40 50]" {
				t.Errorf("GOMAXPROCS %d: calls finishing in reverse return %v, %v; want their results by index", procs, got, err)
			}
		}()
	}
}

// TestLiveRunsKeepToGOMAXPROCS: however fan-outs nest, no more engines than
// GOMAXPROCS run at once — counted from OnSetup, which an engine calls while
// its run is counted, and where each lingers so that runs overlap — and a call
// waiting on a nested fan-out holds no run: three calls each fanning out four
// runs would otherwise deadlock at GOMAXPROCS 2. At GOMAXPROCS 4 runs do
// overlap.
func TestLiveRunsKeepToGOMAXPROCS(t *testing.T) {
	s := Default().WithScale(0.01)
	for _, procs := range []int{2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var mu sync.Mutex
			live, peak := 0, 0
			onSetup := func(*engine.Engine) {
				mu.Lock()
				live++
				peak = max(peak, live)
				mu.Unlock()
				time.Sleep(50 * time.Millisecond)
				mu.Lock()
				live--
				mu.Unlock()
			}
			_, err := each(s, 3, func(int) ([]*engine.JobReport, error) {
				return each(s, 4, func(int) (*engine.JobReport, error) {
					return s.Run(workloads.Scan(s.workloadConfig()), core.Default{}, onSetup)
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			if peak > procs || peak < 2 {
				t.Errorf("GOMAXPROCS %d: up to %d engines ran at once, want 2 to %d", procs, peak, procs)
			}
		}()
	}
}

// TestSharedSinkRunsInOrder: a setup whose runs share a sink runs them one
// after another, in index order, whatever GOMAXPROCS is.
func TestSharedSinkRunsInOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := Default()
	s.Trace = new(strings.Builder)
	var order []int
	stop := errors.New("stop")
	_, err := each(s, 5, func(i int) (int, error) {
		order = append(order, i)
		if i == 3 {
			return i, stop
		}
		return i, nil
	})
	if err != stop || fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("calls ran in the order %v and returned %v, want [0 1 2 3] and the fourth's error", order, err)
	}
}
