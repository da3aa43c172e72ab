package conf

import (
	"strings"
	"testing"
)

// TestTable1Counts pins the catalogue to the paper's Table 1.
func TestTable1Counts(t *testing.T) {
	r := New()
	want := map[Category]int{
		Shuffle:      19,
		Compression:  16,
		Memory:       14,
		Execution:    14,
		Network:      13,
		Scheduling:   32,
		DynamicAlloc: 9,
	}
	got := r.CountByCategory()
	for c, n := range want {
		if got[c] != n {
			t.Errorf("%s: %d parameters, want %d", c, got[c], n)
		}
	}
	if r.Len() != 117 {
		t.Errorf("total = %d, want 117", r.Len())
	}
}

func TestUniqueKeysAndDocs(t *testing.T) {
	r := New()
	for _, k := range r.Keys() {
		par, ok := r.Lookup(k)
		if !ok {
			t.Fatalf("Keys returned unknown key %q", k)
		}
		if par.Doc == "" {
			t.Errorf("%s has no doc", k)
		}
		if par.Category == "" {
			t.Errorf("%s has no category", k)
		}
	}
	if len(r.Keys()) != r.Len() {
		t.Fatal("duplicate keys collapsed")
	}
}

func TestSetGet(t *testing.T) {
	r := New()
	if err := r.Set("executor.threads", "8"); err != nil {
		t.Fatal(err)
	}
	v, err := r.Get("executor.threads")
	if err != nil || v != "8" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	// Default comes through without override.
	v, err = r.Get("executor.cores")
	if err != nil || v != "32" {
		t.Fatalf("default Get = %q, %v", v, err)
	}
}

func TestUnknownKeyRejected(t *testing.T) {
	r := New()
	if err := r.Set("no.such.key", "1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := r.Get("no.such.key"); err == nil {
		t.Fatal("unknown key read")
	}
}

func TestGetIntBool(t *testing.T) {
	r := New()
	n, err := r.GetInt("executor.cores")
	if err != nil || n != 32 {
		t.Fatalf("GetInt = %d, %v", n, err)
	}
	b, err := r.GetBool("shuffle.compress")
	if err != nil || !b {
		t.Fatalf("GetBool = %v, %v", b, err)
	}
	if _, err := r.GetInt("scheduler.mode"); err == nil {
		t.Fatal("non-integer parsed as int")
	}
}

// TestWiredParameters pins how many keys claim an effect; engine's
// TestWiredKeysHaveReaders checks that each one has it.
func TestWiredParameters(t *testing.T) {
	r := New()
	n := 0
	for _, k := range r.Keys() {
		if par, _ := r.Lookup(k); par.Wired {
			n++
		}
	}
	if n != 12 {
		t.Errorf("%d wired parameters, want 12", n)
	}
	for _, k := range []string{"executor.cores", "files.maxPartitionBytes", "executor.taskOverheadMillis"} {
		if par, ok := r.Lookup(k); !ok || !par.Wired {
			t.Errorf("%s should exist and be wired", k)
		}
	}
	// Nothing reads these: they document the surface and claim no effect.
	for _, k := range []string{"executor.threads", "locality.wait", "network.timeout", "shuffle.file.buffer", "memory.spill.pressure"} {
		if par, ok := r.Lookup(k); !ok || par.Wired {
			t.Errorf("%s should exist and not be wired", k)
		}
	}
}

func TestInCategorySorted(t *testing.T) {
	r := New()
	ps := r.InCategory(Scheduling)
	if len(ps) != 32 {
		t.Fatalf("scheduling = %d params", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Key >= ps[i].Key {
			t.Fatal("not sorted")
		}
	}
}

func TestParseFlag(t *testing.T) {
	k, v, err := ParseFlag("executor.threads=4")
	if err != nil || k != "executor.threads" || v != "4" {
		t.Fatalf("ParseFlag = %q %q %v", k, v, err)
	}
	for _, bad := range []string{"", "novalue", "=x"} {
		if _, _, err := ParseFlag(bad); err == nil {
			t.Errorf("ParseFlag(%q) accepted", bad)
		}
	}
	// value containing '=' keeps the remainder intact
	_, v, err = ParseFlag("a=b=c")
	if err != nil || v != "b=c" {
		t.Fatalf("ParseFlag split wrong: %q %v", v, err)
	}
	if !strings.Contains(v, "=") {
		t.Fatal("lost remainder")
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"64": 64, "32k": 32 << 10, "128m": 128 << 20, "2g": 2 << 30, "48M": 48 << 20,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "12q3m"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}

func TestGetFloatAndBytes(t *testing.T) {
	r := New()
	f, err := r.GetFloat("speculation.quantile")
	if err != nil || f != 0.75 {
		t.Fatalf("GetFloat = %v, %v", f, err)
	}
	b, err := r.GetBytes("shuffle.file.buffer")
	if err != nil || b != 32<<20 {
		t.Fatalf("GetBytes = %v, %v", b, err)
	}
}
