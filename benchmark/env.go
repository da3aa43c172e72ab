package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// pinnedProcs is the GOMAXPROCS every run pins: one driver goroutine plus
// the collector's workers, on the two cores the reference box has. Go
// before 1.25 ignores container CPU quotas, so the default would vary with
// the host rather than with the load.
const pinnedProcs = 2

// envStamp records where a result came from. Absolute times from two
// different stamps are not comparable; -compare warns when they differ.
type envStamp struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOGC       string `json:"gogc,omitempty"`
	GOMEMLIMIT string `json:"gomemlimit,omitempty"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified,omitempty"`
}

func stampEnv() envStamp {
	e := envStamp{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOGC:       os.Getenv("GOGC"),
		GOMEMLIMIT: os.Getenv("GOMEMLIMIT"),
		Revision:   "unknown", // a checkout without VCS metadata stamps nothing
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's high-water resident set (VmHWM), 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" { // "VmHWM:   1832 kB"
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// calibrate times a fixed integer loop (a dependent xorshift chain, so it
// neither allocates nor touches memory) and returns the best of three in
// milliseconds. Timed before and after a workload it shows whether the host
// itself changed speed while the workload ran.
func calibrate() float64 {
	best := 0.0
	for r := 0; r < 3; r++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 30_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		runtime.KeepAlive(x)
		if r == 0 || ms < best {
			best = ms
		}
	}
	return best
}
