package scenario

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"sae/internal/arrival"
	"sae/internal/chaos"
	"sae/internal/exp"
	"sae/internal/workloads"
)

// Version is the spec schema version this build reads and writes.
const Version = 1

// Spec kinds. Each kind fixes which fields the spec may carry and is run
// and rendered by its own file of this package: a single engine run
// (compile.go), or the chaos (chaos.go), tenant (tenant.go) or arrival
// (arrival.go) matrix.
const (
	KindSingle        = "single"
	KindChaosMatrix   = "chaos-matrix"
	KindTenantMatrix  = "tenant-matrix"
	KindArrivalMatrix = "arrival-matrix"
)

// Spec is one declarative scenario: the environment, the load, and the
// question, as data. A Spec is pure data — parsing attaches no positions,
// so Parse(Marshal(sp)) round-trips to a reflect.DeepEqual spec.
//
// The structs below are the schema. Every field carries a
// `spec:"key[,req][,pos][,if=Field:a|b]"` tag that the one decoder and the
// one writer (codec.go) both read: key is the document key, req makes the
// field mandatory (and always written), pos demands a number above zero,
// and if= makes the field exist only while the named earlier string field
// of the same struct holds one of the listed values — so a key outside its
// kind is an unknown field. Declaration order is the canonical Marshal
// order.
type Spec struct {
	// Version pins the schema; unknown versions are rejected.
	Version int `spec:"version,req"`
	// Name labels the scenario in errors, listings and reports.
	Name string `spec:"name,req"`
	// Description is the one-line summary `sae-exp -list` shows.
	Description string `spec:"description"`
	// Kind selects the execution shape (see the Kind constants).
	Kind string `spec:"kind,req"`
	// Cluster shapes the simulated environment; zero fields inherit the
	// paper defaults (4 nodes, scale 1, seed 1, HDD).
	Cluster ClusterSpec `spec:"cluster"`
	// Conf holds configuration overrides, validated against the catalogue.
	Conf map[string]string `spec:"conf"`

	// Workload names the job for single and chaos-matrix kinds.
	Workload string `spec:"workload,req,if=Kind:single|chaos-matrix"`
	// Policy is the sizing policy of a single run.
	Policy string `spec:"policy,req,if=Kind:single"`
	// Chaos is a single run's absolute-time chaos spec (chaos.Schedule grammar).
	Chaos string `spec:"chaos,if=Kind:single"`
	// Expect holds a single run's output assertions.
	Expect *ExpectSpec `spec:"expect,if=Kind:single"`

	// Mixes and Schedulers span the tenant matrix (with Policies).
	Mixes      []MixSpec `spec:"mixes,req,if=Kind:tenant-matrix"`
	Schedulers []string  `spec:"schedulers,req,if=Kind:tenant-matrix"`

	// Policies and Schedules span the chaos matrix; Report selects its
	// result preset ("faults" or "grayfail").
	Policies  []string `spec:"policies,req,if=Kind:chaos-matrix|tenant-matrix"`
	Schedules []string `spec:"schedules,req,if=Kind:chaos-matrix"`
	Report    string   `spec:"report,req,if=Kind:chaos-matrix"`

	// Arrival spans the arrival matrix.
	Arrival *ArrivalMatrixSpec `spec:"arrival,req,if=Kind:arrival-matrix"`
}

// ClusterSpec shapes the simulated cluster. Zero values inherit defaults.
type ClusterSpec struct {
	Nodes int     `spec:"nodes,pos"`
	Scale float64 `spec:"scale,pos"`
	Seed  int64   `spec:"seed"`
	// Disk is "hdd" (default) or "ssd".
	Disk string `spec:"disk"`
}

// ExpectSpec is a single run's assertion block; nil pointers are unchecked.
type ExpectSpec struct {
	// MaxRuntimeSec bounds the job runtime (0 = unchecked).
	MaxRuntimeSec float64 `spec:"max_runtime_sec,pos"`
	// MaxLostExecutors bounds executor losses (nil = unchecked; 0 asserts
	// a loss-free run).
	MaxLostExecutors *int `spec:"max_lost_executors"`
	// MinRecoveredGiB asserts the recovery machinery actually engaged.
	MinRecoveredGiB float64 `spec:"min_recovered_gib"`
}

// MixSpec is one named workload mix of a tenant matrix.
type MixSpec struct {
	Name      string   `spec:"name,req"`
	Workloads []string `spec:"workloads,req"`
}

// ArrivalMatrixSpec spans the open-loop elasticity comparison.
type ArrivalMatrixSpec struct {
	Tenants  []TenantSpec      `spec:"tenants,req"`
	Arrivals []ArrivalProcSpec `spec:"arrivals,req"`
	Configs  []ProvisionSpec   `spec:"configs,req"`
	// Capacity is the physical fleet size: an integer, or "Nx" for N times
	// the cluster node count.
	Capacity string `spec:"capacity,req"`
	// Horizon bounds each generated schedule.
	Horizon time.Duration `spec:"horizon,req,pos"`
	// MaxJobs caps arrivals at cluster scale 1; it scales with the cluster
	// scale, never below MinJobs.
	MaxJobs int     `spec:"max_jobs,req,pos"`
	MinJobs int     `spec:"min_jobs"`
	SLO     SLOSpec `spec:"slo,req"`
}

// SLOSpec defines the p99 verdicts: a config meets the SLO while its p99
// stays within Factor (0 selects 1.5) of the Baseline config's.
type SLOSpec struct {
	Factor   float64 `spec:"factor,pos"`
	Baseline string  `spec:"baseline,req"`
}

// TenantSpec is one tenant class with its workload shape. Blocks is the
// per-job input in 64 MiB blocks at cluster scale 1; it scales with the
// cluster scale, never below MinBlocks.
type TenantSpec struct {
	Name      string  `spec:"name,req"`
	Weight    float64 `spec:"weight,req,pos"`
	Priority  int     `spec:"priority"`
	Blocks    int     `spec:"blocks,req,pos"`
	MinBlocks int     `spec:"min_blocks"`
}

// ArrivalProcSpec is one named arrival process.
type ArrivalProcSpec struct {
	Name string `spec:"name,req"`
	// Process is "poisson", "bursty" or "diurnal".
	Process string `spec:"process,req"`
	// Rate is the Poisson rate (jobs/sec).
	Rate float64 `spec:"rate,req,pos,if=Process:poisson"`
	// OnRate/OffRate/On/Off shape the bursty process.
	OnRate  float64       `spec:"on_rate,req,pos,if=Process:bursty"`
	OffRate float64       `spec:"off_rate,if=Process:bursty"`
	On      time.Duration `spec:"on,req,pos,if=Process:bursty"`
	Off     time.Duration `spec:"off,req,pos,if=Process:bursty"`
	// Period/Rates shape the diurnal process.
	Period time.Duration `spec:"period,req,pos,if=Process:diurnal"`
	Rates  []float64     `spec:"rates,req,if=Process:diurnal"`
}

// ProvisionSpec is one provisioning configuration.
type ProvisionSpec struct {
	Name string `spec:"name,req"`
	// Policy is "static", "reactive" or "adaptive".
	Policy string `spec:"policy,req"`
	// Initial is the starting fleet: an integer, "capacity", or "small"
	// (a third of capacity, at least 2).
	Initial string `spec:"initial,req"`
	// Adaptive planner knobs (zero = the planner's zero value).
	Alpha           float64       `spec:"alpha,if=Policy:adaptive"`
	DrainTarget     time.Duration `spec:"drain_target,if=Policy:adaptive"`
	Headroom        float64       `spec:"headroom,if=Policy:adaptive"`
	MinSamplePeriod time.Duration `spec:"min_sample_period,if=Policy:adaptive"`
}

// Load reads and parses the scenario file at path.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

// Parse decodes and validates one YAML scenario document. name prefixes
// every error ("faults.yaml:12: ..."); errors are positional down to the
// field.
func Parse(name string, data []byte) (*Spec, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, posErr(name, err)
	}
	d := &dec{file: name, root: root}
	// Version gates everything else: a future schema may change any field,
	// so nothing is interpreted before the version is known good.
	if vn := d.at("version"); vn != nil && vn.kind == scalarNode {
		if v, err := strconv.ParseInt(vn.val, 10, 64); err == nil && v != Version {
			return nil, d.errf(vn, "unsupported spec version %d (this build supports version %d)", v, Version)
		}
	}
	sp := &Spec{}
	if err := d.structure(root, "scenario spec", reflect.ValueOf(sp).Elem()); err != nil {
		return nil, err
	}
	if err := d.validate(sp); err != nil {
		return nil, err
	}
	if d.unknown != nil {
		return nil, d.unknown
	}
	return sp, nil
}

// posErr prefixes a parser error with the file name, folding the parser's
// "line N: msg" form into the decoder's "file:N: msg" position format.
func posErr(name string, err error) error {
	msg := err.Error()
	if rest, ok := strings.CutPrefix(msg, "line "); ok {
		if i := strings.Index(rest, ": "); i > 0 {
			if _, aerr := strconv.Atoi(rest[:i]); aerr == nil {
				return fmt.Errorf("%s:%s:%s", name, rest[:i], rest[i+1:])
			}
		}
	}
	return fmt.Errorf("%s: %s", name, msg)
}

// validate runs the checks the tags cannot express — catalogue names, the
// chaos and capacity grammars, uniqueness, cross-references — on a decoded
// spec, pointing each error at the offending field's source line. Fields
// outside the spec's kind are empty, so their checks pass vacuously.
func (d *dec) validate(sp *Spec) error {
	// sae-exp -csv writes DIR/<name>/, so a name is one path element.
	if sp.Name == "." || sp.Name == ".." || strings.ContainsAny(sp.Name, `/\`) {
		return d.errf(d.at("name"), "field \"name\": %q is not a file name (no /, \\, . or ..)", sp.Name)
	}
	switch sp.Kind {
	case KindSingle, KindChaosMatrix, KindTenantMatrix, KindArrivalMatrix:
	default:
		return d.errf(d.at("kind"), "unknown kind %q (want %s, %s, %s or %s)",
			sp.Kind, KindSingle, KindChaosMatrix, KindTenantMatrix, KindArrivalMatrix)
	}
	if n := d.at("cluster", "disk"); n != nil && disks[n.val] == nil {
		return d.errf(n, "field \"disk\": unknown device %q (want hdd or ssd)", n.val)
	}
	if err := d.checkConf(); err != nil {
		return err
	}
	if sp.Workload != "" {
		if err := d.checkWorkload(sp.Workload, "workload"); err != nil {
			return err
		}
	}
	if _, err := exp.PolicyByName(sp.Policy); sp.Policy != "" && err != nil {
		return d.errf(d.at("policy"), "field \"policy\": unknown policy %q (want default, static[:N] or dynamic)", sp.Policy)
	}
	// Single runs take the absolute-time chaos grammar verbatim; percentage
	// times need a quiet calibration run, which only the chaos matrix
	// performs.
	if strings.Contains(sp.Chaos, "%") {
		return d.errf(d.at("chaos"), "field \"chaos\": percentage times are only valid in chaos-matrix schedules")
	}
	if _, err := chaos.ParseSchedule(sp.Chaos); err != nil {
		return d.errf(d.at("chaos"), "field \"chaos\": %w", err)
	}
	if e := sp.Expect; e != nil && e.MaxLostExecutors != nil && *e.MaxLostExecutors < 0 {
		return d.errf(d.at("expect", "max_lost_executors"),
			"field \"max_lost_executors\": must be non-negative, got %d", *e.MaxLostExecutors)
	}
	seen := map[string]bool{}
	for i, mix := range sp.Mixes {
		if seen[mix.Name] {
			return d.errf(d.at("mixes", i, "name"), "mixes[%d]: duplicate mix name %q", i, mix.Name)
		}
		seen[mix.Name] = true
		for j, w := range mix.Workloads {
			if err := d.checkWorkload(w, "mixes", i, "workloads", j); err != nil {
				return err
			}
		}
	}
	for i, s := range sp.Schedulers {
		if _, ok := schedulerModes[s]; !ok {
			return d.errf(d.at("schedulers", i), "schedulers[%d]: unknown scheduler %q (want fifo or fair)", i, s)
		}
	}
	for i, p := range sp.Policies {
		if _, err := exp.PolicyByName(p); err != nil {
			return d.errf(d.at("policies", i), "policies[%d]: unknown policy %q (want default, static[:N] or dynamic)", i, p)
		}
	}
	for i, s := range sp.Schedules {
		if _, err := chaos.ParseSchedule(s); err != nil {
			return d.errf(d.at("schedules", i), "schedules[%d]: %w", i, err)
		}
	}
	if _, ok := chaosPresets[sp.Report]; sp.Kind == KindChaosMatrix && !ok {
		return d.errf(d.at("report"), "field \"report\": unknown chaos-matrix preset %q (want faults or grayfail)", sp.Report)
	}
	if sp.Arrival != nil {
		return d.checkArrival(sp.Arrival)
	}
	return nil
}

// checkConf sets the conf block on a copy of the catalogue, so an unknown key
// or a value a run cannot take fails here, at its line, not mid-run. The
// catalogue is cloned only for specs that carry a conf block.
func (d *dec) checkConf() error {
	cn := d.at("conf")
	if cn == nil {
		return nil
	}
	reg := catalogue.Clone()
	for _, key := range cn.keys {
		vn := cn.children[key]
		if err := reg.Set(key, vn.val); err != nil {
			return d.errf(vn, "%w", err)
		}
	}
	return nil
}

func (d *dec) checkWorkload(name string, path ...any) error {
	if !slices.Contains(workloads.Names(), name) {
		return d.errf(d.at(path...), "unknown workload %q", name)
	}
	return nil
}

// The bounds on an arrival process's rates, in jobs/s, and on its peak rate
// × horizon. The committed autoscale spec peaks at 0.3 jobs/s over 6 min,
// about 108 draws.
const (
	maxArrivalRate  = 1000
	maxArrivalDraws = 1e6
)

// rateField is one rate of an arrival process: its field's name in errors,
// its path below the process's node and its value.
type rateField struct {
	name string
	path []any
	rate float64
}

// rateFields lists the rates p's process reads; proc is the one p builds.
func (p ArrivalProcSpec) rateFields(proc arrival.Process) []rateField {
	switch proc.(type) {
	case arrival.Poisson:
		return []rateField{{"rate", []any{"rate"}, p.Rate}}
	case arrival.Bursty:
		return []rateField{{"on_rate", []any{"on_rate"}, p.OnRate}, {"off_rate", []any{"off_rate"}, p.OffRate}}
	}
	fs := make([]rateField, len(p.Rates))
	for j, r := range p.Rates {
		fs[j] = rateField{fmt.Sprintf("rates[%d]", j), []any{"rates", j}, r}
	}
	return fs
}

func (d *dec) checkArrival(m *ArrivalMatrixSpec) error {
	// Tenant classes must not overlap: the generator draws by class name,
	// and a duplicate would silently split one tenant's weight in two.
	seen := map[string]bool{}
	for i, t := range m.Tenants {
		if seen[t.Name] {
			return d.errf(d.at("arrival", "tenants", i, "name"),
				"tenants[%d]: duplicate tenant class %q (tenant classes must not overlap)", i, t.Name)
		}
		seen[t.Name] = true
	}
	seen = map[string]bool{}
	for i, p := range m.Arrivals {
		if seen[p.Name] {
			return d.errf(d.at("arrival", "arrivals", i, "name"), "arrivals[%d]: duplicate arrival name %q", i, p.Name)
		}
		seen[p.Name] = true
		proc, err := p.process()
		if err != nil {
			return d.errf(d.at("arrival", "arrivals", i, "process"),
				"arrivals[%d]: unknown process %q (want poisson, bursty or diurnal)", i, p.Process)
		}
		// The generator's clock moves in whole nanoseconds: near 1e9 jobs/s
		// most gaps round to zero and the clock stops, so each rate is
		// capped. So is the peak rate × horizon, the candidate arrivals
		// thinning draws: one bound alone lets the other factor run away.
		var peak rateField
		for _, f := range p.rateFields(proc) {
			n := d.at(append([]any{"arrival", "arrivals", i}, f.path...)...)
			switch {
			case f.rate < 0:
				return d.errf(n, "arrivals[%d] (%s): %s: %v is not a non-negative number", i, p.Name, f.name, f.rate)
			case f.rate > maxArrivalRate:
				return d.errf(n, "arrivals[%d] (%s): %s: %v jobs/s exceeds %v jobs/s", i, p.Name, f.name, f.rate, maxArrivalRate)
			case f.rate > peak.rate:
				peak = f
			}
		}
		// A diurnal slot is period / len(rates) whole nanoseconds; a zero
		// slot divides by zero.
		if _, ok := proc.(arrival.Diurnal); ok && p.Period < time.Duration(len(p.Rates)) {
			return d.errf(d.at("arrival", "arrivals", i, "period"),
				"arrivals[%d] (%s): period: %v leaves its %d rate slots under a nanosecond each", i, p.Name, p.Period, len(p.Rates))
		}
		if draws := peak.rate * m.Horizon.Seconds(); draws > maxArrivalDraws {
			return d.errf(d.at(append([]any{"arrival", "arrivals", i}, peak.path...)...),
				"arrivals[%d] (%s): %s: %v jobs/s over the %v horizon draws about %.3g candidate arrivals, more than %.0e",
				i, p.Name, peak.name, peak.rate, m.Horizon, draws, float64(maxArrivalDraws))
		}
	}
	seen = map[string]bool{}
	for i, c := range m.Configs {
		if seen[c.Name] {
			return d.errf(d.at("arrival", "configs", i, "name"), "configs[%d]: duplicate config name %q", i, c.Name)
		}
		seen[c.Name] = true
		if _, err := c.planner(); err != nil {
			return d.errf(d.at("arrival", "configs", i, "policy"),
				"configs[%d]: unknown autoscale policy %q (want static, reactive or adaptive)", i, c.Policy)
		}
		if _, err := c.initialNodes(1); err != nil {
			return d.errf(d.at("arrival", "configs", i, "initial"),
				"configs[%d] (%s): field \"initial\": want small, capacity or a positive integer, got %q", i, c.Name, c.Initial)
		}
	}
	if _, _, err := parseCapacity(m.Capacity); err != nil {
		return d.errf(d.at("arrival", "capacity"), "field \"capacity\": %v", err)
	}
	if !seen[m.SLO.Baseline] {
		return d.errf(d.at("arrival", "slo", "baseline"), "field \"baseline\": config %q is not in the config list", m.SLO.Baseline)
	}
	return nil
}

// parseCapacity parses the fleet size: "8" or "2x" (times cluster nodes).
func parseCapacity(s string) (n int, perNode bool, err error) {
	digits, perNode := strings.CutSuffix(s, "x")
	if n, err = strconv.Atoi(digits); err != nil || n <= 0 {
		return 0, false, fmt.Errorf("want a positive integer or \"Nx\" (times cluster nodes), got %q", s)
	}
	return n, perNode, nil
}
