package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// parseErr parses a document expected to fail and returns the error text.
func parseErr(t *testing.T, doc string) string {
	t.Helper()
	_, err := Parse("spec.yaml", []byte(doc))
	if err == nil {
		t.Fatalf("Parse accepted invalid spec:\n%s", doc)
	}
	return err.Error()
}

// requireErr asserts the error is positional (names the file and a line)
// and mentions every given fragment.
func requireErr(t *testing.T, msg string, wantLine string, fragments ...string) {
	t.Helper()
	if !strings.HasPrefix(msg, "spec.yaml:"+wantLine+":") {
		t.Errorf("error %q does not carry position spec.yaml:%s:", msg, wantLine)
	}
	for _, f := range fragments {
		if !strings.Contains(msg, f) {
			t.Errorf("error %q does not mention %q", msg, f)
		}
	}
}

const validSingle = `version: 1
name: demo
kind: single
workload: terasort
policy: dynamic
`

func TestParseValidSingle(t *testing.T) {
	sp, err := Parse("spec.yaml", []byte(validSingle))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != KindSingle || sp.Workload != "terasort" || sp.Policy != "dynamic" {
		t.Errorf("bad decode: %+v", sp)
	}
}

func TestUnsupportedVersion(t *testing.T) {
	msg := parseErr(t, "version: 2\nname: x\nkind: single\nworkload: terasort\npolicy: dynamic\n")
	requireErr(t, msg, "1", "unsupported spec version 2", "supports version 1")
}

func TestMissingVersion(t *testing.T) {
	msg := parseErr(t, "name: x\nkind: single\nworkload: terasort\npolicy: dynamic\n")
	if !strings.Contains(msg, `missing required field "version"`) {
		t.Errorf("error %q does not name the missing version field", msg)
	}
}

func TestUnknownField(t *testing.T) {
	msg := parseErr(t, validSingle+"polcy: dynamic\n")
	requireErr(t, msg, "6", `unknown field "polcy"`)
}

func TestUnknownConfKey(t *testing.T) {
	doc := `version: 1
name: demo
kind: single
conf:
  shuffle.io.maxRetries: 6
  shuffle.io.maxRetreis: 6
workload: terasort
policy: dynamic
`
	msg := parseErr(t, doc)
	requireErr(t, msg, "6", `unknown parameter "shuffle.io.maxRetreis"`)
}

func TestMalformedChaosClause(t *testing.T) {
	doc := `version: 1
name: demo
kind: chaos-matrix
workload: terasort
policies: [default]
schedules:
  - quiet
  - crash1@45%%
report: faults
`
	msg := parseErr(t, doc)
	requireErr(t, msg, "8", "schedules[1]", "crash1@45%%")
}

func TestUnknownChaosClause(t *testing.T) {
	doc := `version: 1
name: demo
kind: chaos-matrix
workload: terasort
policies: [default]
schedules: [explode]
report: faults
`
	msg := parseErr(t, doc)
	requireErr(t, msg, "6", "schedules[0]", `chaos: clause "explode": unknown clause`)
}

func TestOverlappingTenantClasses(t *testing.T) {
	doc := `version: 1
name: demo
kind: arrival-matrix
arrival:
  tenants:
    - name: batch
      weight: 3
      blocks: 8
    - name: batch
      weight: 1
      blocks: 8
  arrivals:
    - name: poisson
      process: poisson
      rate: 0.1
  configs:
    - name: static
      policy: static
      initial: capacity
  capacity: 2x
  horizon: 6m
  max_jobs: 10
  slo:
    baseline: static
`
	msg := parseErr(t, doc)
	requireErr(t, msg, "9", "duplicate tenant class", "must not overlap")
}

func TestNonPositiveTenantWeight(t *testing.T) {
	doc := `version: 1
name: demo
kind: arrival-matrix
arrival:
  tenants:
    - name: batch
      weight: 0
      blocks: 8
  arrivals:
    - name: poisson
      process: poisson
      rate: 0.1
  configs:
    - name: static
      policy: static
      initial: capacity
  capacity: 2x
  horizon: 6m
  max_jobs: 10
  slo:
    baseline: static
`
	msg := parseErr(t, doc)
	requireErr(t, msg, "7", `field "weight" must be positive`)
}

// TestNonFiniteFloatRejected: strconv.ParseFloat reads NaN and Inf, and a NaN
// scale passed every "must be positive" check on its way to the file system.
func TestNonFiniteFloatRejected(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Infinity", "1e400"} {
		doc := strings.Replace(validSingle, "kind: single\n", "kind: single\ncluster:\n  scale: "+v+"\n", 1)
		msg := parseErr(t, doc)
		requireErr(t, msg, "5", `field "scale"`, `"`+v+`"`, "finite")
	}
	doc := strings.Replace(validSingle, "kind: single\n", "kind: single\nexpect:\n  min_recovered_gib: -Inf\n", 1)
	requireErr(t, parseErr(t, doc), "5", `field "min_recovered_gib"`, "finite")
}

func TestUnknownPolicy(t *testing.T) {
	doc := `version: 1
name: demo
kind: chaos-matrix
workload: terasort
policies:
  - default
  - statik
schedules: [quiet]
report: faults
`
	msg := parseErr(t, doc)
	requireErr(t, msg, "7", "policies[1]", `unknown policy "statik"`)
}

// TestTrailingGarbageInStaticCount: "static:8abc" used to scan as static-8.
func TestTrailingGarbageInStaticCount(t *testing.T) {
	for _, policy := range []string{"static:8abc", `"static:8 9"`, `"static: 8"`} {
		doc := `version: 1
name: demo
kind: single
workload: terasort
policy: ` + policy + `
`
		msg := parseErr(t, doc)
		requireErr(t, msg, "5", `field "policy"`, "unknown policy")
	}
}

func TestUnknownBaseline(t *testing.T) {
	doc := `version: 1
name: demo
kind: arrival-matrix
arrival:
  tenants:
    - name: batch
      weight: 1
      blocks: 8
  arrivals:
    - name: poisson
      process: poisson
      rate: 0.1
  configs:
    - name: static
      policy: static
      initial: capacity
  capacity: 2x
  horizon: 6m
  max_jobs: 10
  slo:
    baseline: static-large
`
	msg := parseErr(t, doc)
	requireErr(t, msg, "21", `config "static-large" is not in the config list`)
}

func TestDuplicateKey(t *testing.T) {
	msg := parseErr(t, "version: 1\nversion: 1\n")
	requireErr(t, msg, "2", `duplicate key "version"`)
}

func TestTabsRejected(t *testing.T) {
	msg := parseErr(t, "version: 1\n\tname: x\n")
	requireErr(t, msg, "2", "tabs are not allowed")
}

// TestGoldenRoundTrip re-serializes every committed scenario and checks
// Parse(Marshal(sp)) is a deep-equal fixpoint.
func TestGoldenRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden scenarios found: %v", err)
	}
	for _, path := range paths {
		sp, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out := Marshal(sp)
		sp2, err := Parse(path+" (marshalled)", out)
		if err != nil {
			t.Fatalf("%s: re-parse failed: %v\n%s", path, err, out)
		}
		if !reflect.DeepEqual(sp, sp2) {
			t.Errorf("%s: round trip changed the spec\n--- marshalled ---\n%s", path, out)
		}
		if again := Marshal(sp2); string(again) != string(out) {
			t.Errorf("%s: Marshal is not a fixpoint", path)
		}
	}
}

// TestJSONSpec checks a JSON document decodes to the same spec as its
// YAML equivalent.
func TestJSONSpec(t *testing.T) {
	jsonDoc := `{
  "version": 1,
  "name": "demo",
  "kind": "single",
  "workload": "terasort",
  "policy": "dynamic",
  "expect": {"max_runtime_sec": 600}
}`
	yamlDoc := `version: 1
name: demo
kind: single
workload: terasort
policy: dynamic
expect:
  max_runtime_sec: 600
`
	js, err := Parse("spec.json", []byte(jsonDoc))
	if err != nil {
		t.Fatal(err)
	}
	ys, err := Parse("spec.yaml", []byte(yamlDoc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(js, ys) {
		t.Errorf("JSON and YAML decode differ:\n%+v\n%+v", js, ys)
	}
}

func TestJSONUnknownField(t *testing.T) {
	_, err := Parse("spec.json", []byte(`{"version": 1, "name": "x", "kind": "single", "workload": "terasort", "policy": "dynamic", "polcy": "x"}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "polcy"`) {
		t.Errorf("JSON unknown field not rejected: %v", err)
	}
}

// TestGoldenDescriptions makes sure every committed scenario carries the
// one-line description sae-exp -list shows.
func TestGoldenDescriptions(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	for _, path := range paths {
		sp, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if sp.Description == "" {
			t.Errorf("%s: missing description", path)
		}
		if sp.Name != strings.TrimSuffix(filepath.Base(path), ".yaml") {
			t.Errorf("%s: spec name %q does not match the file name", path, sp.Name)
		}
	}
}

// TestQuotedScalars exercises the quoting corners of the YAML subset.
func TestQuotedScalars(t *testing.T) {
	doc := "version: 1\nname: demo\ndescription: 'it''s #1: a \"test\"'\nkind: single\nworkload: terasort\npolicy: dynamic\n"
	sp, err := Parse("spec.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := `it's #1: a "test"`
	if sp.Description != want {
		t.Errorf("description %q, want %q", sp.Description, want)
	}
	out := Marshal(sp)
	sp2, err := Parse("spec.yaml", out)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, out)
	}
	if sp2.Description != want {
		t.Errorf("round-tripped description %q, want %q", sp2.Description, want)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(os.TempDir(), "definitely-missing.yaml")); err == nil {
		t.Error("Load of a missing file succeeded")
	}
}

func TestPercentageOutOfRange(t *testing.T) {
	doc := `version: 1
name: demo
kind: chaos-matrix
workload: terasort
policies: [default]
schedules:
  - crash1@150%
report: faults
`
	msg := parseErr(t, doc)
	requireErr(t, msg, "7", "schedules[0]", `"150%"`, "out of range", "0%-100%")
}

func TestNonPositiveSlowFactor(t *testing.T) {
	for _, factor := range []string{"0", "-1.5"} {
		doc := `version: 1
name: demo
kind: chaos-matrix
workload: terasort
policies: [default]
schedules:
  - slow1@30%x` + factor + `
report: faults
`
		msg := parseErr(t, doc)
		requireErr(t, msg, "7", "schedules[0]", "bad factor", `"`+factor+`"`)
	}
}

// TestBadConfValue: a conf value the engine would reject mid-run fails at
// Parse instead, pointing at the override's line.
func TestBadConfValue(t *testing.T) {
	doc := `version: 1
name: demo
kind: single
conf:
  shuffle.io.maxRetries: 6
  task.maxFailures: banana
workload: terasort
policy: dynamic
`
	msg := parseErr(t, doc)
	requireErr(t, msg, "6", `conf "task.maxFailures"`, `"banana" is not an integer`)
}

// TestUnknownKind: a misspelt kind is reported as such, not through the
// kind-specific fields it orphaned; a key outside its kind is unknown.
func TestUnknownKind(t *testing.T) {
	msg := parseErr(t, "version: 1\nname: x\nkind: singel\nworkload: terasort\npolicy: dynamic\n")
	requireErr(t, msg, "3", `unknown kind "singel"`)
	msg = parseErr(t, validSingle+"schedules: [quiet]\n")
	requireErr(t, msg, "6", `unknown field "schedules"`)
}

// TestSchema walks every struct reachable from Spec and checks the tags the
// codec relies on: each field tagged, keys unique per struct, only known
// options, pos on numbers only, and if= naming a string field declared
// earlier in the same struct (the decoder fills fields in that order).
func TestSchema(t *testing.T) {
	if len(schemas) < 9 {
		t.Fatalf("schema covers %d struct types, want Spec and its 8 nested ones", len(schemas))
	}
	for typ, fields := range schemas {
		keys := map[string]bool{}
		for _, f := range fields {
			sf := typ.Field(f.index)
			name := typ.Name() + "." + sf.Name
			tag, ok := sf.Tag.Lookup("spec")
			if !ok || f.key == "" {
				t.Errorf("%s: missing spec tag or key", name)
				continue
			}
			if keys[f.key] {
				t.Errorf("%s: key %q repeats within the struct", name, f.key)
			}
			keys[f.key] = true
			for _, opt := range strings.Split(tag, ",")[1:] {
				if opt != "req" && opt != "pos" && !strings.HasPrefix(opt, "if=") {
					t.Errorf("%s: unknown tag option %q", name, opt)
				}
			}
			if kind := sf.Type.Kind(); f.pos && kind != reflect.Int && kind != reflect.Int64 && kind != reflect.Float64 {
				t.Errorf("%s: pos on a non-number (%s)", name, sf.Type)
			}
			if strings.Contains(tag, "if=") {
				if f.cond < 0 || f.cond >= f.index || typ.Field(f.cond).Type.Kind() != reflect.String {
					t.Errorf("%s: if= must name a string field declared earlier in %s", name, typ.Name())
				}
				if len(f.vals) == 0 || slices.Contains(f.vals, "") {
					t.Errorf("%s: if= lists no values", name)
				}
			}
		}
	}
}

// TestRoundTripBranches covers the if= branches no committed golden takes:
// a diurnal process with rates, a numeric initial fleet, and an expect
// block asserting zero lost executors.
func TestRoundTripBranches(t *testing.T) {
	docs := map[string]string{
		"diurnal": `version: 1
name: demo
kind: arrival-matrix
arrival:
  tenants:
    - name: batch
      weight: 1
      blocks: 8
  arrivals:
    - name: day
      process: diurnal
      period: 2m0s
      rates: [0.1, 0, 0.3]
  configs:
    - name: fixed
      policy: static
      initial: 3
  capacity: 8
  horizon: 6m0s
  max_jobs: 10
  slo:
    baseline: fixed
`,
		"expect": validSingle + "expect:\n  max_lost_executors: 0\n",
	}
	for name, doc := range docs {
		sp, err := Parse(name+".yaml", []byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		out := Marshal(sp)
		if string(out) != doc {
			t.Errorf("%s: canonical form changed\n--- got ---\n%s--- want ---\n%s", name, out, doc)
		}
		if sp2, err := Parse(name+".yaml", out); err != nil || !reflect.DeepEqual(sp, sp2) {
			t.Errorf("%s: round trip changed the spec (err %v)", name, err)
		}
	}
	sp, _ := Parse("diurnal.yaml", []byte(docs["diurnal"]))
	if p := sp.Arrival.Arrivals[0]; !reflect.DeepEqual(p.Rates, []float64{0.1, 0, 0.3}) || sp.Arrival.Configs[0].Initial != "3" {
		t.Errorf("diurnal branch decoded to %+v / %+v", p, sp.Arrival.Configs[0])
	}
	sp, _ = Parse("expect.yaml", []byte(docs["expect"]))
	if e := sp.Expect; e == nil || e.MaxLostExecutors == nil || *e.MaxLostExecutors != 0 {
		t.Errorf("expect branch decoded to %+v", e)
	}
}
