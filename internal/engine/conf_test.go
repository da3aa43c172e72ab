package engine

import (
	"reflect"
	"strings"
	"testing"

	"sae/internal/cluster"
	"sae/internal/conf"
	"sae/internal/core"
	"sae/internal/device"
)

func TestApplyConfigDefaults(t *testing.T) {
	opts := testOptions(2, core.Default{})
	if err := ApplyConfig(&opts, conf.New()); err != nil {
		t.Fatal(err)
	}
	if opts.Cluster.CPU.VirtualCores != 32 {
		t.Fatalf("vcores = %d", opts.Cluster.CPU.VirtualCores)
	}
	if opts.BlockSize != 128<<20 {
		t.Fatalf("block size = %d", opts.BlockSize)
	}
	if opts.TaskOverheadCPUSeconds != 0.02 {
		t.Fatalf("overhead = %v", opts.TaskOverheadCPUSeconds)
	}
	if opts.TaskMaxFailures != 4 {
		t.Fatalf("maxFailures = %d", opts.TaskMaxFailures)
	}
	if opts.Speculation {
		t.Fatal("speculation should default off")
	}
	if opts.JobPolicy == nil || opts.JobPolicy.Name() != "FIFO" {
		t.Fatalf("job policy = %v, want FIFO", opts.JobPolicy)
	}
	if opts.BlacklistAfter != 3 {
		t.Fatalf("blacklist streak = %d, want 3", opts.BlacklistAfter)
	}
}

func TestApplyConfigOverrides(t *testing.T) {
	reg := conf.New()
	for k, v := range map[string]string{
		"executor.cores":                            "16",
		"files.maxPartitionBytes":                   "32m",
		"task.maxFailures":                          "2",
		"speculation":                               "true",
		"speculation.quantile":                      "0.9",
		"speculation.multiplier":                    "2.0",
		"scheduler.mode":                            "FAIR",
		"blacklist.stage.maxFailedTasksPerExecutor": "0",
	} {
		if err := reg.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	opts := testOptions(2, core.Default{})
	if err := ApplyConfig(&opts, reg); err != nil {
		t.Fatal(err)
	}
	if opts.Cluster.CPU.VirtualCores != 16 || opts.Cluster.CPU.PhysicalCores != 8 {
		t.Fatalf("cores = %d/%d", opts.Cluster.CPU.VirtualCores, opts.Cluster.CPU.PhysicalCores)
	}
	if opts.BlockSize != 32<<20 {
		t.Fatalf("block = %d", opts.BlockSize)
	}
	if !opts.Speculation || opts.SpeculationQuantile != 0.9 || opts.SpeculationMultiplier != 2.0 {
		t.Fatalf("speculation = %+v", opts)
	}
	if opts.JobPolicy.Name() != "FAIR" {
		t.Fatalf("job policy = %q, want FAIR", opts.JobPolicy.Name())
	}
	if opts.BlacklistAfter != -1 {
		t.Fatalf("blacklist streak = %d, want -1 (disabled)", opts.BlacklistAfter)
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
	reg := conf.New()
	if err := reg.Set("speculation.multiplier", "0.5"); err != nil {
		t.Fatal(err)
	}
	opts := Options{Cluster: cluster.DAS5(2), Policy: core.Default{}}
	if err := ApplyConfig(&opts, reg); err == nil {
		t.Fatal("multiplier ≤ 1 accepted")
	}
	reg2 := conf.New()
	if err := reg2.Set("files.maxPartitionBytes", "banana"); err != nil {
		t.Fatal(err)
	}
	if err := ApplyConfig(&opts, reg2); err == nil {
		t.Fatal("bad size accepted")
	}
	reg3 := conf.New()
	if err := reg3.Set("scheduler.mode", "LIFO"); err != nil {
		t.Fatal(err)
	}
	if err := ApplyConfig(&opts, reg3); err == nil {
		t.Fatal("unknown scheduler mode accepted")
	}
}

// TestApplyConfigBlockSizeFloor: a negative split size used to panic in the
// file system and a one-byte one split the input into more blocks than memory
// holds; below 1 MiB (HDFS's minimum block size) is a one-line error naming
// the key. 1 MiB itself is accepted.
func TestApplyConfigBlockSizeFloor(t *testing.T) {
	for _, v := range []string{"-1", "0", "1", "1023k"} {
		reg := conf.New()
		if err := reg.Set("files.maxPartitionBytes", v); err != nil {
			t.Fatal(err)
		}
		opts := testOptions(2, core.Default{})
		err := ApplyConfig(&opts, reg)
		if err == nil {
			t.Errorf("files.maxPartitionBytes=%s accepted", v)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "files.maxPartitionBytes") || strings.Contains(msg, "\n") {
			t.Errorf("files.maxPartitionBytes=%s: error %q, want one line naming the key", v, msg)
		}
	}
	reg := conf.New()
	if err := reg.Set("files.maxPartitionBytes", "1m"); err != nil {
		t.Fatal(err)
	}
	opts := testOptions(2, core.Default{})
	if err := ApplyConfig(&opts, reg); err != nil || opts.BlockSize != 1<<20 {
		t.Fatalf("files.maxPartitionBytes=1m: block size %d, error %v", opts.BlockSize, err)
	}
	opts = testOptions(2, core.Default{})
	opts.BlockSize = -1
	if _, err := NewEngine(opts); err == nil {
		t.Fatal("NewEngine accepted a negative block size")
	}
}

// TestWiredKeysHaveReaders: every key the catalogue marks Wired, moved off its
// default through ApplyConfig, changes the options an engine is built from. A
// key marked Wired without a case here fails, and so does one ApplyConfig does
// not read.
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
	base := testOptions(2, core.Default{})
	if err := ApplyConfig(&base, conf.New()); err != nil {
		t.Fatal(err)
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
		reg := conf.New()
		if err := reg.Set(key, v); err != nil {
			t.Fatal(err)
		}
		opts := testOptions(2, core.Default{})
		if err := ApplyConfig(&opts, reg); err != nil {
			t.Fatalf("%s=%s: %v", key, v, err)
		}
		if reflect.DeepEqual(opts, base) {
			t.Errorf("%s=%s leaves the options as they are: nothing reads it", key, v)
		}
	}
	if wired != len(moved) {
		t.Errorf("%d wired keys, %d cases", wired, len(moved))
	}
}
