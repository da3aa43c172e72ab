package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sae/internal/psres"
	"sae/internal/sim"
)

// wait is one blocking point of a scripted process: a demand on the shared
// server or, when demand is zero, a timer of d.
type wait struct {
	demand float64
	d      time.Duration
}

// start issues w for p without parking; either kind owes p exactly one wake.
func (w wait) start(srv *psres.Server, p *sim.Proc) {
	if w.demand > 0 {
		srv.Start(p, w.demand, 1)
	} else {
		p.WakeAfter(w.d)
	}
}

// scripted runs a script either as a coroutine process (blocking forms) or
// as a stackless one (Start forms), logging every resume.
type scripted struct {
	name   string
	script []wait
	srv    *psres.Server
	k      *sim.Kernel
	log    *[]string
	proc   sim.Proc
	next   int
}

func (s *scripted) record() {
	*s.log = append(*s.log, fmt.Sprintf("%s@%v#%d", s.name, s.k.Now(), s.k.FiredEvents()))
}

func (s *scripted) body(p *sim.Proc) {
	s.record()
	for _, w := range s.script {
		if w.demand > 0 {
			s.srv.Serve(p, w.demand, 1)
		} else {
			p.Sleep(w.d)
		}
		s.record()
	}
}

func (s *scripted) Step() {
	s.record()
	if s.next < len(s.script) {
		s.next++
		s.script[s.next-1].start(s.srv, &s.proc)
	}
}

// TestStepperInterleavesLikeGo: a stackless process takes exactly the place a
// coroutine process would — the same resumes at the same (time, event count)
// positions and the same total of fired events — whichever of two contending
// processes is the stackless one, in either spawn order.
func TestStepperInterleavesLikeGo(t *testing.T) {
	scripts := [2][]wait{
		{{demand: 10}, {d: 3 * time.Millisecond}, {demand: 5}, {d: 0}, {demand: 7}, {demand: 1}},
		{{demand: 4}, {demand: 4}, {d: time.Millisecond}, {demand: 20}, {d: 0}, {d: 0}, {demand: 2}},
	}
	run := func(stackless [2]bool, stopAt time.Duration) ([]string, uint64) {
		k := sim.NewKernel()
		srv := psres.NewServer(k, psres.Config{Name: "s", Curve: func(n int) float64 { return 1000 / float64(n+1) }})
		var log []string
		for i, script := range scripts {
			s := &scripted{name: string(rune('a' + i)), script: script, srv: srv, k: k, log: &log}
			if stackless[i] {
				k.GoStepper(&s.proc, s.name, s)
			} else {
				k.Go(s.name, s.body)
			}
		}
		if stopAt > 0 {
			k.At(stopAt, k.Stop)
		}
		k.Run()
		return log, k.FiredEvents()
	}
	wantLog, wantFired := run([2]bool{false, false}, 0)
	if len(wantLog) != len(scripts[0])+len(scripts[1])+2 {
		t.Fatalf("reference run logged %d resumes: %v", len(wantLog), wantLog)
	}
	for _, stackless := range [][2]bool{{true, false}, {false, true}, {true, true}} {
		log, fired := run(stackless, 0)
		if !reflect.DeepEqual(log, wantLog) || fired != wantFired {
			t.Errorf("stackless %v: %d events fired, resumes\n %v\nwant %d events,\n %v", stackless, fired, log, wantFired, wantLog)
		}
	}

	// Run returning with steppers still queued on the server leaks nothing:
	// they hold no coroutine for shutdown to stop.
	base := runtime.NumGoroutine()
	if log, _ := run([2]bool{true, true}, 5*time.Millisecond); len(log) >= len(wantLog) {
		t.Fatalf("stopped run logged %d resumes, the full run %d: nothing was left waiting", len(log), len(wantLog))
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after a run stopped with steppers waiting, %d before", n, base)
	}
}
