package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"sae/internal/chaos"
)

// scheduleGen builds one chaos plan given the policy's quiet runtime and
// the cluster seed. A nil plan is the quiet schedule.
type scheduleGen func(quiet time.Duration, seed int64) *chaos.Plan

// parseScheduleSpec parses one schedule entry of a chaos matrix (or a
// single run's chaos field). On top of the chaos grammar it accepts
// percentage times — "crash1@45%" lands the crash at 45% of the policy's
// quiet runtime, resolved per policy after the calibration run. Clause
// forms:
//
//	quiet | none          no faults
//	crash[N]@T[+R]        fail-stop crash (optional restart after R)
//	slow[N]@TxF           devices degrade to 1/F from T
//	partition[N]@T+D      network drops for [T, T+D)
//	flaky[:RATE]          transient task I/O faults
//	fetch[:RATE]          transient shuffle-fetch failures
//	corrupt[:RATE]        bit-rotten DFS replicas
//	mayhem@T              crash-restart mid-horizon plus low-rate faults
//
// where T, R and D are durations ("45s") or percentages ("45%"). Plans are
// built through the chaos constructors, whose plan names are the schedule
// keys in every report. Multi-clause comma specs are passed to chaos.Parse
// and may not use percentages.
func parseScheduleSpec(s string) (scheduleGen, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "quiet" || s == "none" {
		return func(time.Duration, int64) *chaos.Plan { return nil }, nil
	}
	if strings.ContainsRune(s, ',') {
		if strings.ContainsRune(s, '%') {
			return nil, fmt.Errorf("clause %q: percentage times are only valid in single-clause schedules", s)
		}
		plan, err := chaos.Parse(s)
		if err != nil {
			return nil, err
		}
		return func(time.Duration, int64) *chaos.Plan { return plan }, nil
	}
	switch {
	case strings.HasPrefix(s, "crash"):
		return parseCrashClause(s)
	case strings.HasPrefix(s, "slow"):
		return parseSlowClause(s)
	case strings.HasPrefix(s, "partition"):
		return parsePartitionClause(s)
	case strings.HasPrefix(s, "flaky"):
		return parseRateClause(s, "flaky", 0.05, chaos.Flaky)
	case strings.HasPrefix(s, "fetch"):
		return parseRateClause(s, "fetch", 0.1, chaos.FetchStorm)
	case strings.HasPrefix(s, "corrupt"):
		return parseRateClause(s, "corrupt", 0.01, chaos.Corrupt)
	case strings.HasPrefix(s, "mayhem@"):
		t, err := parsePctDur(s[len("mayhem@"):])
		if err != nil {
			return nil, fmt.Errorf("clause %q: bad horizon: %w", s, err)
		}
		return func(quiet time.Duration, seed int64) *chaos.Plan {
			return chaos.Mayhem(t.resolve(quiet), seed)
		}, nil
	default:
		return nil, fmt.Errorf("unknown chaos clause %q (want quiet, crash[N]@T[+R], slow[N]@TxF, partition[N]@T+D, flaky:R, fetch:R, corrupt:R or mayhem@T)", s)
	}
}

// pctDur is a schedule instant: absolute, or a percentage of the quiet
// runtime.
type pctDur struct {
	pct   int64
	dur   time.Duration
	isPct bool
}

// resolve computes the instant. Percentage math is integer on nanoseconds
// (quiet*pct/100); the committed goldens pin it.
func (t pctDur) resolve(quiet time.Duration) time.Duration {
	if t.isPct {
		return quiet * time.Duration(t.pct) / 100
	}
	return t.dur
}

func parsePctDur(s string) (pctDur, error) {
	if strings.HasSuffix(s, "%") {
		n, err := strconv.ParseInt(s[:len(s)-1], 10, 64)
		if err != nil || n < 0 {
			return pctDur{}, fmt.Errorf("%q is not a percentage (want e.g. 45%%)", s)
		}
		if n > 100 {
			return pctDur{}, fmt.Errorf("percentage %q is out of range (times are fractions of the quiet runtime; want 0%%-100%%)", s)
		}
		return pctDur{pct: n, isPct: true}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return pctDur{}, fmt.Errorf("%q is not a duration or percentage", s)
	}
	return pctDur{dur: d}, nil
}

// splitExec splits the executor number off a clause head: "crash1@…" →
// (1, "…"). The executor defaults to 1; a ':' separator is accepted as in
// the chaos grammar ("slow:1@…").
func splitExec(s, head string) (int, string, error) {
	rest := strings.TrimPrefix(s, head)
	rest = strings.TrimPrefix(rest, ":")
	at := strings.IndexByte(rest, '@')
	if at < 0 {
		return 0, "", fmt.Errorf("clause %q: missing @T", s)
	}
	exec := 1
	if at > 0 {
		n, err := strconv.Atoi(rest[:at])
		if err != nil || n < 0 {
			return 0, "", fmt.Errorf("clause %q: bad executor %q", s, rest[:at])
		}
		exec = n
	}
	return exec, rest[at+1:], nil
}

func parseCrashClause(s string) (scheduleGen, error) {
	exec, times, err := splitExec(s, "crash")
	if err != nil {
		return nil, err
	}
	if plus := strings.IndexByte(times, '+'); plus >= 0 {
		at, err := parsePctDur(times[:plus])
		if err != nil {
			return nil, fmt.Errorf("clause %q: bad crash time: %w", s, err)
		}
		after, err := parsePctDur(times[plus+1:])
		if err != nil {
			return nil, fmt.Errorf("clause %q: bad restart delay: %w", s, err)
		}
		return func(quiet time.Duration, _ int64) *chaos.Plan {
			return chaos.CrashRestart(exec, at.resolve(quiet), after.resolve(quiet))
		}, nil
	}
	at, err := parsePctDur(times)
	if err != nil {
		return nil, fmt.Errorf("clause %q: bad crash time: %w", s, err)
	}
	return func(quiet time.Duration, _ int64) *chaos.Plan {
		return chaos.CrashAt(exec, at.resolve(quiet))
	}, nil
}

func parseSlowClause(s string) (scheduleGen, error) {
	exec, times, err := splitExec(s, "slow")
	if err != nil {
		return nil, err
	}
	factor := 2.0
	if x := strings.IndexByte(times, 'x'); x >= 0 {
		f, err := strconv.ParseFloat(times[x+1:], 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("clause %q: bad factor %q", s, times[x+1:])
		}
		factor = f
		times = times[:x]
	}
	at, err := parsePctDur(times)
	if err != nil {
		return nil, fmt.Errorf("clause %q: bad time: %w", s, err)
	}
	return func(quiet time.Duration, _ int64) *chaos.Plan {
		return chaos.SlowAt(exec, at.resolve(quiet), factor)
	}, nil
}

func parsePartitionClause(s string) (scheduleGen, error) {
	exec, times, err := splitExec(s, "partition")
	if err != nil {
		return nil, err
	}
	plus := strings.IndexByte(times, '+')
	if plus < 0 {
		return nil, fmt.Errorf("clause %q: want partition[N]@T+D", s)
	}
	at, err := parsePctDur(times[:plus])
	if err != nil {
		return nil, fmt.Errorf("clause %q: bad start time: %w", s, err)
	}
	dur, err := parsePctDur(times[plus+1:])
	if err != nil {
		return nil, fmt.Errorf("clause %q: bad duration: %w", s, err)
	}
	return func(quiet time.Duration, _ int64) *chaos.Plan {
		return chaos.PartitionAt(exec, at.resolve(quiet), dur.resolve(quiet))
	}, nil
}

func parseRateClause(s, name string, def float64, mk func(rate float64, seed int64) *chaos.Plan) (scheduleGen, error) {
	rest := strings.TrimPrefix(s, name)
	rate := def
	if rest != "" {
		if !strings.HasPrefix(rest, ":") {
			return nil, fmt.Errorf("unknown chaos clause %q (want %s[:RATE])", s, name)
		}
		f, err := strconv.ParseFloat(rest[1:], 64)
		if err != nil || f <= 0 || f > 1 {
			return nil, fmt.Errorf("clause %q: bad rate %q (want a fraction in (0, 1])", s, rest[1:])
		}
		rate = f
	}
	return func(_ time.Duration, seed int64) *chaos.Plan {
		return mk(rate, seed)
	}, nil
}
