package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines reports whether the goroutine count settles back at base.
// Coroutines exit synchronously inside stop; only the windowed barrier's
// helper goroutines need a moment after their last send.
func waitGoroutines(base int) bool {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= base {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestProcPanicReachesRun: every event fires on Run's goroutine, so a panic
// inside a process surfaces in Run's caller — with its value intact and the
// other processes shut down — instead of crashing a detached goroutine.
func TestProcPanicReachesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	cleaned := false
	k.Go("bystander", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Park()
	})
	k.Go("faulty", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want boom", r)
			}
		}()
		k.Run()
		t.Error("Run returned normally")
	}()
	if !cleaned {
		t.Error("parked bystander was not unwound after the panic")
	}
	if !waitGoroutines(base) {
		t.Errorf("%d goroutines left, started with %d", runtime.NumGoroutine(), base)
	}
}

// TestShutdownOrderAndUnstarted: shutdown unwinds killed processes in process
// creation order even when the pool handed their coroutines out in another
// order, and a process that never started is dropped without its body running.
func TestShutdownOrderAndUnstarted(t *testing.T) {
	k := NewKernel()
	var log []string
	short := func(p *Proc) { p.Sleep(time.Millisecond) }
	k.Go("short-0", short)
	k.Go("short-1", short)
	// Both coroutines are idle by 2ms; the pool is LIFO, so parked-0 runs on
	// the younger coroutine and parked-1 on the older one.
	k.At(2*time.Millisecond, func() {
		for i := 0; i < 2; i++ {
			k.Go(fmt.Sprintf("parked-%d", i), func(p *Proc) {
				defer func() { log = append(log, "killed "+p.Name()) }()
				p.Park()
			})
		}
	})
	k.At(3*time.Millisecond, func() {
		k.Go("unstarted", func(p *Proc) { log = append(log, "ran unstarted") })
		k.Stop()
	})
	k.Run()
	want := []string{"killed parked-0", "killed parked-1"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("shutdown log = %v, want %v", log, want)
	}
}

// TestShutdownOrderAfterEarlyExit: a process that returns leaves the kernel's
// coroutine list without disturbing the order of the others; the kill pass is
// still in creation order.
func TestShutdownOrderAfterEarlyExit(t *testing.T) {
	k := NewKernel()
	var log []string
	k.Go("short", func(p *Proc) { p.Sleep(time.Millisecond) })
	for i := 0; i < 3; i++ {
		k.Go(fmt.Sprintf("parked-%d", i), func(p *Proc) {
			defer func() { log = append(log, "killed "+p.Name()) }()
			p.Park()
		})
	}
	k.Run()
	if k.coros != nil {
		t.Fatalf("%d coroutines listed after Run", len(k.coros))
	}
	want := []string{"killed parked-0", "killed parked-1", "killed parked-2"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("shutdown log = %v, want %v", log, want)
	}
}

// leakModel gives k four processes that finish and one that parks forever, so
// a run ends with both idle coroutines and a live one to stop.
func leakModel(k *Kernel) {
	for j := 0; j < 4; j++ {
		k.Go("sleeper", func(p *Proc) {
			for n := 0; n < 20; n++ {
				p.Sleep(300 * time.Microsecond)
			}
		})
	}
	k.Go("parked", func(p *Proc) { p.Park() })
}

// TestNoGoroutineLeak: every run method stops the coroutines it created —
// those of killed processes and the idle pool alike.
func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	runs := map[string]func(){
		"Kernel.Run": func() {
			k := NewKernel()
			leakModel(k)
			k.Run()
		},
		"ShardSet.RunWindows": func() {
			ss := NewShardSet(3, time.Millisecond)
			for i := 0; i < 3; i++ {
				leakModel(ss.Shard(i))
			}
			ss.RunWindows()
		},
	}
	for name, run := range runs {
		run()
		if !waitGoroutines(base) {
			t.Errorf("%s: %d goroutines left, started with %d", name, runtime.NumGoroutine(), base)
		}
	}
}

// nopStepper is a stackless process that ends at its first resume.
type nopStepper struct{}

func (nopStepper) Step() {}

// TestStacklessCannotPark: the blocking forms need a coroutine to switch away
// from, so on a stackless process each panics naming the process instead of
// dereferencing the coroutine it does not have; WakeAfter polices its delay
// like Sleep.
func TestStacklessCannotPark(t *testing.T) {
	k := NewKernel()
	var p Proc
	k.GoStepper(&p, "flat", nopStepper{})
	for name, block := range map[string]func(){
		"Park":         func() { p.Park() },
		"Sleep":        func() { p.Sleep(time.Millisecond) },
		"Mailbox.Recv": func() { NewMailbox[int](k).Recv(&p) },
		"WakeAfter<0":  func() { p.WakeAfter(-1) },
	} {
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if r == nil || name != "WakeAfter<0" && !strings.Contains(msg, `"flat"`) {
					t.Errorf("%s on a stackless process: recovered %v, want a panic naming it", name, r)
				}
			}()
			block()
		}()
	}
}
