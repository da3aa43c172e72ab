package rdd

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/cluster"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine"
	"sae/internal/engine/job"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/pipelines.golden from the stage compiler under test")

// pipelineLog collects, per action, the result records in collected order and
// the fingerprint of the engine report: everything a change to how stage work
// is charged to the simulated devices, or to the order map tasks append to the
// shuffle buckets, would move.
type pipelineLog struct {
	bytes.Buffer
}

func (l *pipelineLog) job(name string, records any, rep *engine.JobReport) {
	fmt.Fprintf(l, "== %s\nrecords %v\n", name, records)
	fmt.Fprintf(l, "runtime %d disk r/w %d/%d net %d lost %d resubmitted %d recovered %d fetch-retries %d\n",
		rep.Runtime, rep.DiskReadBytes, rep.DiskWriteBytes, rep.NetBytes,
		rep.LostExecutors, rep.ResubmittedStages, rep.RecoveredBytes, rep.FetchRetries)
	for _, st := range rep.Stages {
		var blocked time.Duration
		for _, e := range st.Execs {
			blocked += e.BlockedIO
		}
		fmt.Fprintf(l, "stage %d %s [%d, %d] disk r/w %d/%d net %d moved %d blocked %d retries %d requeued %d threads %s\n",
			st.ID, st.Name, st.Start, st.End, st.DiskReadBytes, st.DiskWriteBytes, st.NetBytes,
			st.Bytes(), blocked, st.Retries, st.Requeued, st.ThreadsLabel())
		for i, e := range st.Execs {
			fmt.Fprintf(l, "  exec %d tasks %d local %d moved %d blocked %d threads %d..%d\n",
				i, e.Tasks, e.LocalTasks, e.Bytes, e.BlockedIO, e.InitialThreads, e.FinalThreads)
		}
	}
	for i, ds := range rep.Decisions {
		fmt.Fprintf(l, "decisions %d:", i)
		for _, d := range ds {
			fmt.Fprintf(l, " %d@%d/s%d", d.Threads, d.At, d.Stage)
		}
		fmt.Fprintln(l)
	}
}

func pipelineContext(t *testing.T, policy job.Policy, faults *chaos.Plan) *Context {
	t.Helper()
	cfg := cluster.DAS5(4)
	cfg.Variability = device.Uniform()
	// Records dear enough that a task spans many device waits' worth of
	// virtual time: crashes and faults then land mid-task.
	c, err := NewContext(Options{Cluster: cfg, Policy: policy, Faults: faults, RecordCPUSeconds: 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func corpus(lines int) []string {
	vocab := strings.Fields("adaptive executor thread pool disk shuffle stage task monitor analyze plan execute knowledge spark hdfs block")
	out := make([]string, lines)
	for i := range out {
		var b strings.Builder
		for j := 0; j < 6+i%5; j++ {
			b.WriteString(vocab[(i*7+j*j*3+i/3)%len(vocab)])
			b.WriteByte(' ')
		}
		out[i] = b.String()
	}
	return out
}

func wordCount(c *Context, lines []string, maps, reduces int) *Dataset[Pair[string, int]] {
	words := FlatMap(TextFile(c, "pin/text", lines, maps), func(l string) []string { return strings.Fields(l) })
	pairs := Map(words, func(w string) Pair[string, int] { return Pair[string, int]{Key: w, Value: 1} })
	return ReduceByKey(pairs, func(a, b int) int { return a + b }, reduces)
}

// TestPipelinesMatchParent pins what nothing else in this package does: the
// virtual-time behaviour of compiled stages. Five pipelines — word count, a
// two-sided join, a cached iterative job, a save action, and a word count
// under task faults plus an executor crash (zombies, and replays through the
// emitted guard) — must reproduce testdata/pipelines.golden, captured with
// -update while stage work still ran as blocking closures on coroutines.
func TestPipelinesMatchParent(t *testing.T) {
	var log pipelineLog

	// 1. Word count (reduceByKey) over a DFS text file, dynamic policy.
	{
		c := pipelineContext(t, core.DefaultDynamic(), nil)
		out, rep, err := Collect(wordCount(c, corpus(600), 12, 5))
		if err != nil {
			t.Fatal(err)
		}
		log.job("wordcount", out, rep)
	}

	// 2. Two-sided join: sibling map stages overlap under the DAG scheduler.
	{
		c := pipelineContext(t, core.Default{}, nil)
		var users []Pair[int, string]
		var orders []Pair[int, int]
		for i := 0; i < 40; i++ {
			users = append(users, Pair[int, string]{Key: i, Value: fmt.Sprintf("user-%02d", i)})
		}
		for i := 0; i < 150; i++ {
			orders = append(orders, Pair[int, int]{Key: (i * 13) % 50, Value: 100 + i})
		}
		joined := Join(Parallelize(c, users, 6), Parallelize(c, orders, 9), 4)
		out, rep, err := Collect(joined)
		if err != nil {
			t.Fatal(err)
		}
		log.job("join", out, rep)
	}

	// 3. Cached iterative job, PageRank-shaped: the cached link table feeds a
	// join + reduceByKey per iteration, each iteration its own action.
	{
		c := pipelineContext(t, core.DefaultDynamic(), nil)
		var edges []Pair[int, int]
		for i := 0; i < 60; i++ {
			edges = append(edges, Pair[int, int]{Key: i % 12, Value: (i*i + 1) % 12})
		}
		links := Cache(GroupByKey(Parallelize(c, edges, 6), 4))
		var ranks []Pair[int, float64]
		for i := 0; i < 12; i++ {
			ranks = append(ranks, Pair[int, float64]{Key: i, Value: 1})
		}
		for iter := 0; iter < 3; iter++ {
			contribs := FlatMap(Join(links, Parallelize(c, ranks, 4), 4),
				func(p Pair[int, JoinedRow[[]int, float64]]) []Pair[int, float64] {
					var out []Pair[int, float64]
					for _, dst := range p.Value.Left {
						out = append(out, Pair[int, float64]{Key: dst, Value: p.Value.Right / float64(len(p.Value.Left))})
					}
					return out
				})
			summed := ReduceByKey(contribs, func(a, b float64) float64 { return a + b }, 4)
			next := MapValues(summed, func(v float64) float64 { return 0.15 + float64(0.85*v) })
			out, rep, err := Collect(next)
			if err != nil {
				t.Fatal(err)
			}
			log.job(fmt.Sprintf("pagerank-iter%d", iter), out, rep)
			ranks = out
		}
	}

	// 4. A save action: the final stage writes DFS output.
	{
		c := pipelineContext(t, core.Static{IOThreads: 4}, nil)
		rep, err := SaveAsTextFile(wordCount(c, corpus(300), 8, 3), "pin/out",
			func(p Pair[string, int]) string { return fmt.Sprintf("%s\t%d", p.Key, p.Value) })
		if err != nil {
			t.Fatal(err)
		}
		log.job("save", "-", rep)
	}

	// 5. Word count under chaos: transient task faults replay map closures,
	// and a crash halfway through the map stage of this very run leaves the
	// crashed executor's running tasks behind as zombies whose requeued copies
	// replay through the emitted guard.
	{
		run := func(crashes []chaos.Crash) ([]Pair[string, int], *engine.JobReport) {
			plan := &chaos.Plan{Name: "pin", Seed: 3, TaskFaultRate: 0.25, Crashes: crashes}
			c := pipelineContext(t, core.DefaultDynamic(), plan)
			out, rep, err := Collect(wordCount(c, corpus(600), 24, 5))
			if err != nil {
				t.Fatal(err)
			}
			return out, rep
		}
		_, calm := run(nil)
		m := calm.Stages[0]
		out, rep := run([]chaos.Crash{{Exec: 1, At: m.Start + (m.End-m.Start)/2}})
		var retries int
		for _, st := range rep.Stages {
			retries += st.Retries
		}
		switch {
		case retries == 0:
			t.Fatal("no task fault struck: the replay path is not covered")
		case rep.LostExecutors != 1 || rep.Stages[0].Requeued == 0:
			t.Fatalf("lost executors = %d, map tasks requeued = %d: the crash left no zombie", rep.LostExecutors, rep.Stages[0].Requeued)
		}
		log.job("wordcount-chaos", out, rep)
	}

	const golden = "testdata/pipelines.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := log.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range gl {
			if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("diverges from %s at line %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("log is %d lines, %s has %d", len(gl), golden, len(wl))
	}
}
