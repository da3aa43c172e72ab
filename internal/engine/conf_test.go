package engine

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/conf"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine/job"
)

// TestApplyConfigDefaults: the catalogue's defaults, read as a run reads
// them, and an engine without a registry runs on exactly those.
func TestApplyConfigDefaults(t *testing.T) {
	got, err := readConfig(conf.New())
	if err != nil {
		t.Fatal(err)
	}
	want := config{
		cores: 32, blockSize: 128 << 20, taskOverhead: 0.02, maxFailures: 4,
		specQuantile: 0.75, specMultiplier: 1.5, jobPolicy: FIFO{}, blacklistAfter: 3,
		heartbeat: 10 * time.Second, fetchRetries: 3, fetchRetryWait: 5 * time.Second,
	}
	if got != want || catalogueConfig != want {
		t.Fatalf("the catalogue reads as %+v (once per process: %+v), want %+v", got, catalogueConfig, want)
	}
	opts := testOptions(2, core.Default{})
	opts.BlockSize = 0
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg != want || e.opts.BlockSize != 128<<20 || e.opts.JobPolicy != (FIFO{}) {
		t.Fatalf("an engine without a registry runs with %+v, block size %d and %v", e.cfg, e.opts.BlockSize, e.opts.JobPolicy)
	}
}

func TestApplyConfigOverrides(t *testing.T) {
	opts := testOptions(2, core.Default{})
	opts.BlockSize = 0
	opts.Config = Conf(nil, "executor.cores=16", "files.maxPartitionBytes=32m", "task.maxFailures=2",
		"speculation=true", "speculation.quantile=0.9", "speculation.multiplier=2.0",
		"scheduler.mode=FAIR", "blacklist.stage.maxFailedTasksPerExecutor=0")
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cpu := e.opts.Cluster.CPU; cpu.VirtualCores != 16 || cpu.PhysicalCores != 8 {
		t.Fatalf("cores = %d/%d", cpu.VirtualCores, cpu.PhysicalCores)
	}
	if e.opts.BlockSize != 32<<20 {
		t.Fatalf("block = %d", e.opts.BlockSize)
	}
	if c := e.cfg; c.maxFailures != 2 || !c.speculation || c.specQuantile != 0.9 || c.specMultiplier != 2.0 {
		t.Fatalf("config = %+v", c)
	}
	if e.opts.JobPolicy.Name() != "FAIR" {
		t.Fatalf("job policy = %q, want FAIR", e.opts.JobPolicy.Name())
	}
	if e.cfg.blacklistAfter != 0 {
		t.Fatalf("blacklist streak = %d, want 0 (disabled)", e.cfg.blacklistAfter)
	}
	// An explicit split size and scheduler win over the registry's.
	opts.BlockSize, opts.JobPolicy = 64*device.MiB, FIFO{}
	if e, err = NewEngine(opts); err != nil || e.opts.BlockSize != 64*device.MiB || e.opts.JobPolicy.Name() != "FIFO" {
		t.Fatalf("explicit block size and scheduler: %v, %v (%v)", e.opts.BlockSize, e.opts.JobPolicy, err)
	}
	// And the configured engine actually runs with the reduced cores.
	opts.Inputs = []Input{{Name: "in", Size: device.GiB}}
	rep, err := Run(opts, readJob("conf", device.GiB))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages[0].MaxThreadsTotal != 2*16 {
		t.Fatalf("cmax total = %d, want 32", rep.Stages[0].MaxThreadsTotal)
	}
}

func TestApplyConfigBadValues(t *testing.T) {
	for _, kv := range []string{"speculation.multiplier=0.5", "files.maxPartitionBytes=banana", "scheduler.mode=LIFO"} {
		opts := testOptions(2, core.Default{})
		opts.Config = Conf(nil, kv)
		err := CheckConfig(opts.Config)
		if err == nil {
			t.Errorf("%s accepted", kv)
			continue
		}
		if _, nerr := NewEngine(opts); nerr == nil || nerr.Error() != err.Error() {
			t.Errorf("%s: NewEngine says %v, CheckConfig %v", kv, nerr, err)
		}
	}
}

// TestApplyConfigBlockSizeFloor: a negative split size used to panic in the
// file system and a one-byte one split the input into more blocks than memory
// holds; below 1 MiB (HDFS's minimum block size) is a one-line error naming
// the key. 1 MiB itself is accepted.
func TestApplyConfigBlockSizeFloor(t *testing.T) {
	for _, v := range []string{"-1", "0", "1", "1023k"} {
		err := CheckConfig(Conf(nil, "files.maxPartitionBytes="+v))
		if err == nil {
			t.Errorf("files.maxPartitionBytes=%s accepted", v)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "files.maxPartitionBytes") || strings.Contains(msg, "\n") {
			t.Errorf("files.maxPartitionBytes=%s: error %q, want one line naming the key", v, msg)
		}
	}
	opts := testOptions(2, core.Default{})
	opts.BlockSize = 0
	opts.Config = Conf(nil, "files.maxPartitionBytes=1m")
	if e, err := NewEngine(opts); err != nil || e.opts.BlockSize != 1<<20 {
		t.Fatalf("files.maxPartitionBytes=1m: %v", err)
	}
	opts = testOptions(2, core.Default{})
	opts.BlockSize = -1
	if _, err := NewEngine(opts); err == nil {
		t.Fatal("NewEngine accepted a negative block size")
	}
}

// TestWiredKeysHaveReaders: every key the catalogue marks Wired, moved off its
// default, changes what a run reads. A key marked Wired without a case here
// fails, and so does one readConfig does not read.
func TestWiredKeysHaveReaders(t *testing.T) {
	moved := map[string]string{
		"shuffle.io.maxRetries":                     "5",
		"shuffle.io.retryWait":                      "7s",
		"executor.cores":                            "16",
		"executor.heartbeatInterval":                "3s",
		"files.maxPartitionBytes":                   "64m",
		"executor.taskOverheadMillis":               "50",
		"scheduler.mode":                            "FAIR",
		"blacklist.stage.maxFailedTasksPerExecutor": "5",
		"speculation":                               "true",
		"speculation.multiplier":                    "2",
		"speculation.quantile":                      "0.5",
		"task.maxFailures":                          "7",
	}
	reg := conf.New()
	wired := 0
	for _, key := range reg.Keys() {
		if par, _ := reg.Lookup(key); !par.Wired {
			continue
		}
		wired++
		v, ok := moved[key]
		if !ok {
			t.Errorf("%s is wired but has no non-default value here", key)
			continue
		}
		c, err := readConfig(Conf(nil, key+"="+v))
		if err != nil {
			t.Fatalf("%s=%s: %v", key, v, err)
		}
		if c == catalogueConfig {
			t.Errorf("%s=%s leaves the run's config as it is: nothing reads it", key, v)
		}
	}
	if wired != len(moved) {
		t.Errorf("%d wired keys, %d cases", wired, len(moved))
	}
}

// TestApplyConfigRejectsRunawayValues: a nanosecond heartbeat never let the
// clock reach the job's end and a million-hour one overflowed the failure
// detector, a NaN speculation multiplier made every running task a
// straggler, a non-positive fetch retry wait silently became 5s, more retries
// or a longer wait doubled the fetch backoff into runs of minutes, a task's
// launch CPU had no ceiling, and a size past 2^63 wrapped negative. Each is a
// one-line error naming its key.
func TestApplyConfigRejectsRunawayValues(t *testing.T) {
	for _, c := range []struct{ key, val string }{
		{"executor.heartbeatInterval", "1ns"},
		{"executor.heartbeatInterval", "99ms"},
		{"executor.heartbeatInterval", "0s"},
		{"executor.heartbeatInterval", "61m"},
		{"executor.heartbeatInterval", "1000000h"},
		{"shuffle.io.maxRetries", "11"},
		{"shuffle.io.maxRetries", "40"},
		{"shuffle.io.retryWait", "31s"},
		{"shuffle.io.retryWait", "2000000h"},
		{"executor.taskOverheadMillis", "60001"},
		{"executor.taskOverheadMillis", "9223372036854"},
		{"speculation.multiplier", "NaN"},
		{"speculation.multiplier", "+Inf"},
		{"speculation.quantile", "NaN"},
		{"shuffle.io.retryWait", "0s"},
		{"shuffle.io.retryWait", "-1s"},
		{"files.maxPartitionBytes", "8589934592g"},
	} {
		err := CheckConfig(Conf(nil, c.key+"="+c.val))
		if err == nil {
			t.Errorf("%s=%s accepted", c.key, c.val)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c.key) || strings.Contains(msg, "\n") {
			t.Errorf("%s=%s: error %q, want one line naming the key", c.key, c.val, msg)
		}
	}
	for _, kv := range [][]string{
		{"executor.heartbeatInterval=100ms", "shuffle.io.retryWait=1ns"},
		{"executor.heartbeatInterval=1h", "shuffle.io.retryWait=30s", "shuffle.io.maxRetries=10", "executor.taskOverheadMillis=60000"},
	} {
		if err := CheckConfig(Conf(nil, kv...)); err != nil {
			t.Errorf("the extreme accepted values %v: %v", kv, err)
		}
	}
}

// TestApplyConfigNoSilentDefaults: the engine's options used to read a zero
// (or, for some fields, an out-of-range) value as "use the default", so four
// conf values ran as the default instead of as given. An overhead of 0 ms
// means none; the others have no meaning and are a conf.ErrBadValue, one line
// naming the key.
func TestApplyConfigNoSilentDefaults(t *testing.T) {
	for _, c := range []struct {
		key, val string
		ok       bool
	}{
		{"executor.taskOverheadMillis", "0", true},
		{"executor.taskOverheadMillis", "-3", true},
		{"task.maxFailures", "1", true},
		{"task.maxFailures", "0", false},
		{"task.maxFailures", "-3", false},
		{"speculation.quantile", "1", true},
		{"speculation.quantile", "0.01", true},
		{"speculation.quantile", "0", false},
		{"speculation.quantile", "-0.5", false},
		{"speculation.quantile", "7", false},
		{"executor.cores", "1", true},
		{"executor.cores", "0", false},
		{"executor.cores", "-5", false},
	} {
		opts := testOptions(2, core.Default{})
		opts.Config = Conf(nil, c.key+"="+c.val)
		err := CheckConfig(opts.Config)
		if !c.ok {
			if err == nil {
				t.Errorf("%s=%s accepted", c.key, c.val)
			} else if msg := err.Error(); !errors.Is(err, conf.ErrBadValue) || !strings.Contains(msg, c.key) || strings.Contains(msg, "\n") {
				t.Errorf("%s=%s: error %q, want one conf.ErrBadValue line naming the key", c.key, c.val, msg)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s=%s: %v", c.key, c.val, err)
			continue
		}
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		var got, want any
		switch c.key {
		case "executor.taskOverheadMillis":
			got, want = e.cfg.taskOverhead, 0.0
		case "task.maxFailures":
			got, want = e.cfg.maxFailures, 1
		case "speculation.quantile":
			want, _ = opts.Config.GetFloat(c.key)
			got = e.cfg.specQuantile
		case "executor.cores":
			got, want = e.executors[0].info.MaxThreads, 1
		}
		if got != want {
			t.Errorf("%s=%s: the engine runs with %v, want %v", c.key, c.val, got, want)
		}
	}
}

// TestNilConfigIsTheCatalogue: a run without a registry, one given the bare
// catalogue, and one given every wired key set to its catalogue default write
// the same v2 trace and report, on a faulted run — with speculation on, too,
// where only a registry can turn it on.
func TestNilConfigIsTheCatalogue(t *testing.T) {
	quiet := calibrate(t, core.DefaultDynamic())
	run := func(reg *conf.Registry) (*JobReport, []byte) {
		var trace bytes.Buffer
		spec, inputs := twoStageJob()
		opts := testOptions(4, core.DefaultDynamic())
		opts.Inputs, opts.Config, opts.Trace = inputs, reg, &trace
		opts.Faults = &chaos.Plan{
			Name:           "mixed",
			Seed:           7,
			Crashes:        []chaos.Crash{{Exec: 1, At: quiet.Runtime * 2 / 5, RestartAfter: quiet.Runtime / 5}},
			Slows:          []chaos.Slow{{Exec: 2, At: time.Second, Factor: 4}},
			TaskFaultRate:  0.05,
			FetchFaultRate: 0.1,
		}
		rep, err := Run(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		return rep, trace.Bytes()
	}
	// explicit sets every wired key to its catalogue default, then kvs.
	explicit := func(kvs ...string) *conf.Registry {
		reg := conf.New()
		for _, key := range reg.Keys() {
			if par, _ := reg.Lookup(key); par.Wired {
				Conf(reg, key+"="+par.Default)
			}
		}
		return Conf(reg, kvs...)
	}
	for _, pair := range []struct {
		name string
		a, b *conf.Registry
	}{
		{"nil vs catalogue", nil, conf.New()},
		{"nil vs explicit defaults", nil, explicit()},
		{"speculating: catalogue vs explicit defaults", Conf(nil, "speculation=true"), explicit("speculation=true")},
	} {
		repA, traceA := run(pair.a)
		repB, traceB := run(pair.b)
		if !reflect.DeepEqual(repA, repB) {
			t.Errorf("%s: reports differ", pair.name)
		}
		if !bytes.Equal(traceA, traceB) {
			t.Errorf("%s: traces differ", pair.name)
		}
	}
	rep, _ := run(Conf(nil, "speculation=true"))
	if rep.Stages[0].Speculative+rep.Stages[1].Speculative == 0 {
		t.Error("the speculating pair launched no speculative copy: it shows nothing about speculation")
	}
}

// TestZeroCountsDisable: a zero blacklist streak means no blacklisting, and a
// non-positive launch overhead means no launch CPU. (A zero
// shuffle.io.maxRetries means no fetch retries: TestFetchRetriesAbsorbTransients.)
func TestZeroCountsDisable(t *testing.T) {
	blacklists := func(kv ...string) int {
		var trace bytes.Buffer
		spec, inputs := twoStageJob()
		opts := testOptions(4, core.Static{IOThreads: 4})
		opts.Inputs, opts.Trace = inputs, &trace
		opts.Faults = &chaos.Plan{Name: "flaky", Seed: 3, TaskFaultRate: 0.3}
		opts.Config = Conf(opts.Config, append(kv, "task.maxFailures=20")...)
		if _, err := Run(opts, spec); err != nil {
			t.Fatal(err)
		}
		events, err := ReadTrace(&trace)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ev := range events {
			if ev.Type == TraceBlacklist {
				n++
			}
		}
		return n
	}
	if n := blacklists(); n == 0 {
		t.Fatal("flaky tasks blacklisted no executor at the default streak: the zero streak below shows nothing")
	}
	if n := blacklists("blacklist.stage.maxFailedTasksPerExecutor=0"); n != 0 {
		t.Errorf("a zero blacklist streak blacklisted %d time(s)", n)
	}

	// A stage of tasks that do nothing but launch: their run time is the
	// launch CPU and the control plane's latency.
	runtime := func(kv ...string) time.Duration {
		opts := testOptions(2, core.Static{IOThreads: 4})
		opts.Config = Conf(opts.Config, kv...)
		rep, err := Run(opts, &job.JobSpec{Name: "launch", Stages: []*job.StageSpec{{
			ID: 0, Name: "x", NumTasks: 8, Work: opsThen(nil),
		}}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Runtime
	}
	none, negative := runtime("executor.taskOverheadMillis=0"), runtime("executor.taskOverheadMillis=-5")
	if negative != none || none >= runtime() {
		t.Errorf("launch-only stage: %v at -5 ms, %v at 0 ms, %v at the 20 ms default; want -5 = 0 < 20", negative, none, runtime())
	}
}
