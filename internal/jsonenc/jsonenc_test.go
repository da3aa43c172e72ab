package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// checkFloat asserts AppendFloat and json.Marshal agree on v: the same
// bytes, or the same error.
func checkFloat(t *testing.T, v float64) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, err := AppendFloat([]byte("x"), v)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("AppendFloat(%v) error = %v, want %v", v, err, wantErr)
		}
		if string(got) != "x" {
			t.Errorf("AppendFloat(%v) appended %q on error", v, got[1:])
		}
		return
	}
	if err != nil {
		t.Errorf("AppendFloat(%v) error = %v, want none", v, err)
	}
	if string(got[1:]) != string(want) {
		t.Errorf("AppendFloat(%v) = %s, encoding/json writes %s", v, got[1:], want)
	}
}

func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendString([]byte("x"), s); string(got[1:]) != string(want) {
		t.Errorf("AppendString(%q) = %s, encoding/json writes %s", s, got[1:], want)
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	next := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	prev := func(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123456.789, 1e6, 1e20,
		// either side of the switch to exponent notation
		1e-6, prev(1e-6), next(1e-6), 9.999999e-7, 1e-7, 1.5e-7,
		1e21, prev(1e21), next(1e21), 1.5e21, 1e22,
		// exponents whose leading zero is (e-09) and is not (e-10, e+21) trimmed
		1e-9, 1.25e-9, 1e-10, 1e-100, 1e100, 1.7976931348623157e308,
		// subnormals
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 1e-310,
		// integers at and past 2^53
		1 << 53, 1<<53 + 2, 1 << 62, 1 << 63, 1e19,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, v := range vals {
		checkFloat(t, v)
		checkFloat(t, -v)
	}
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "task_launch", `exec="0"`, `a\b`, "<tag>", "a&b", "a>b",
		"tab\there", "nl\n", "\x00", "\x1f", "\x7f", "~ ",
		"ζ rising", "line\u2028sep", "para\u2029sep", "bad\xffutf8", "\xc3", "日本語",
	} {
		checkString(t, s)
	}
}

// FuzzAppendJSON checks both appenders against json.Marshal on arbitrary
// float64 bit patterns and byte strings.
func FuzzAppendJSON(f *testing.F) {
	f.Add(math.Float64bits(1e-6), "detail")
	f.Add(math.Float64bits(1e21), `q"\<`)
	f.Add(math.Float64bits(math.NaN()), "\xff ")
	f.Fuzz(func(t *testing.T, bits uint64, s string) {
		checkFloat(t, math.Float64frombits(bits))
		checkString(t, s)
	})
}
