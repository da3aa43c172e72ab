package scenario

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"sae/internal/engine"
	"sae/internal/exp"
	"sae/internal/invariant"
)

func TestAutoscaleMatrix(t *testing.T) {
	res := runExperiment[*AutoscaleResult](t, "autoscale", 0.05)
	// 2 arrival scenarios × 4 provisioning configs.
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	get := func(arrivals, config string) (AutoscaleRow, bool) {
		return lookup(res.Rows, func(r AutoscaleRow) bool { return r.Arrivals == arrivals && r.Config == config })
	}
	for _, arrivals := range []string{"poisson", "bursty"} {
		for _, config := range []string{"static-small", "static-large", "reactive", "adaptive"} {
			row, ok := get(arrivals, config)
			if !ok {
				t.Fatalf("missing row %s/%s", arrivals, config)
			}
			if row.Jobs <= 0 || row.P99Sec <= 0 || row.NodeHours <= 0 {
				t.Fatalf("%s/%s: degenerate row %+v", arrivals, config, row)
			}
			var classJobs int
			for _, c := range row.Classes {
				if c.Jobs <= 0 || c.P99Sec < c.P50Sec {
					t.Fatalf("%s/%s: bad class row %+v", arrivals, config, c)
				}
				classJobs += c.Jobs
			}
			if classJobs != row.Jobs {
				t.Fatalf("%s/%s: class jobs sum %d != %d", arrivals, config, classJobs, row.Jobs)
			}
		}
		// The large static fleet is its own SLO baseline, so it always meets it.
		large, _ := get(arrivals, "static-large")
		if !large.SLOMet {
			t.Fatalf("%s/static-large misses its own SLO baseline", arrivals)
		}
		// Elastic configs must cost less than permanently running the full fleet.
		for _, config := range []string{"reactive", "adaptive"} {
			row, _ := get(arrivals, config)
			if row.NodeHours >= large.NodeHours {
				t.Fatalf("%s/%s node-hours %.3f not below static-large %.3f",
					arrivals, config, row.NodeHours, large.NodeHours)
			}
		}
	}
	if _, ok := res.CSVTables()["autoscale"]; !ok {
		t.Fatal("CSVTables missing autoscale table")
	}
}

// liveAudit counts the engines running between BeginRun and EndRun across
// every child forked from it, holding each run a moment so runs that may
// overlap do.
type liveAudit struct {
	*invariant.Auditor
	c *liveCount
}

type liveCount struct {
	mu         sync.Mutex
	live, peak int
}

func (a liveAudit) BeginRun(active []bool) {
	a.c.mu.Lock()
	a.c.live++
	a.c.peak = max(a.c.peak, a.c.live)
	a.c.mu.Unlock()
	time.Sleep(10 * time.Millisecond)
	a.Auditor.BeginRun(active)
}

func (a liveAudit) EndRun() {
	a.Auditor.EndRun()
	a.c.mu.Lock()
	a.c.live--
	a.c.mu.Unlock()
}

func (a liveAudit) Fork() engine.Audit {
	return liveAudit{a.Auditor.Fork().(*invariant.Auditor), a.c}
}

func (a liveAudit) Join(child engine.Audit) { a.Auditor.Join(child.(liveAudit).Auditor) }

// TestArrivalReplaysKeepToGOMAXPROCS: arrival matrices compiled and run
// inside the calls of an outer fan-out at GOMAXPROCS 2 run no more than two
// engines at once, since each replay holds one of the process's run places
// (exp.RunEngine) and not only a slot of its own matrix's fan-out.
func TestArrivalReplaysKeepToGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sp := loadGolden(t, "autoscale.yaml")
	s := seed7()
	aud := liveAudit{invariant.New(), new(liveCount)}
	s.Audit = aud
	if _, err := exp.Each(s, 2, func(s exp.Setup, _ int) (fmt.Stringer, error) {
		c, err := sp.Compile(s)
		if err != nil {
			return nil, err
		}
		return c.Run()
	}); err != nil {
		t.Fatal(err)
	}
	if aud.c.peak != 2 {
		t.Fatalf("up to %d arrival replays ran at once at GOMAXPROCS 2, want 2", aud.c.peak)
	}
	if v := aud.Violations(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
}
