package exp

import (
	"runtime"
	"sync"
)

// each calls do(0) … do(n-1) and returns their results by index, or the
// error of the lowest index that failed: what a loop stopping at the first
// error returns, since every run owns its whole simulated world. The calls
// run side by side on goroutines of their own, unless s shares a sink among
// its runs (Trace, Metrics or Audit set) or GOMAXPROCS is 1: then in order,
// as that loop. A call waiting on a nested fan-out holds no run; only Run and
// RunMulti do (startRun).
func each[T any](s Setup, n int, do func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if s.Trace != nil || s.Metrics != nil || s.Audit != nil || runtime.GOMAXPROCS(0) == 1 {
		for i := range n {
			var err error
			if out[i], err = do(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = do(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// live counts the engine runs in progress in the process; runFreed wakes a
// run waiting for one to end.
var (
	liveMu   sync.Mutex
	runFreed = sync.NewCond(&liveMu)
	live     int
)

// startRun waits until fewer engine runs than GOMAXPROCS, read now, are in
// progress, and counts one more; endRun counts it out. So however many
// fan-outs nest, a process runs no more engines at once than it has
// processors, and holds no more runs' state.
func startRun() {
	liveMu.Lock()
	for live >= runtime.GOMAXPROCS(0) {
		runFreed.Wait()
	}
	live++
	liveMu.Unlock()
}

func endRun() {
	liveMu.Lock()
	live--
	liveMu.Unlock()
	runFreed.Signal()
}
