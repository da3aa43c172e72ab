// Package conf catalogues the engine's functional configuration surface in
// the style of Apache Spark 2.4, whose 117 functional parameters the paper
// counts in Table 1 to motivate self-tuning. Parameters are grouped into
// the paper's seven categories; a few are genuinely wired into the engine
// (marked Wired), the rest document the configuration surface a drop-in
// executor replacement must coexist with.
package conf

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Category is a Table 1 parameter group.
type Category string

// The paper's Table 1 categories.
const (
	Shuffle      Category = "Shuffle"
	Compression  Category = "Compression and Serialization"
	Memory       Category = "Memory Management"
	Execution    Category = "Execution Behavior"
	Network      Category = "Network"
	Scheduling   Category = "Scheduling"
	DynamicAlloc Category = "Dynamic Allocation"
)

// Categories lists all categories in Table 1 order.
func Categories() []Category {
	return []Category{Shuffle, Compression, Memory, Execution, Network, Scheduling, DynamicAlloc}
}

// Parameter is one functional configuration parameter.
type Parameter struct {
	Key      string
	Category Category
	Default  string
	Doc      string
	// Wired marks parameters the simulation engine actually honours.
	Wired bool
	// accepts is a wired parameter's values: every one a run can take.
	accepts check
}

// Registry is the full parameter catalogue with override values.
type Registry struct {
	params map[string]Parameter
	values map[string]string
}

// New returns a registry populated with the full catalogue.
func New() *Registry {
	r := &Registry{params: make(map[string]Parameter), values: make(map[string]string)}
	for _, p := range catalogue {
		if _, dup := r.params[p.Key]; dup {
			panic(fmt.Sprintf("conf: duplicate parameter %s", p.Key))
		}
		r.params[p.Key] = p
	}
	return r
}

// Clone returns a copy of r: a Set on either leaves the other as it was.
func (r *Registry) Clone() *Registry {
	return &Registry{params: r.params, values: maps.Clone(r.values)}
}

// Lookup returns the parameter's definition.
func (r *Registry) Lookup(key string) (Parameter, bool) {
	p, ok := r.params[key]
	return p, ok
}

// ErrBadValue marks a value Set refuses.
var ErrBadValue = errors.New("conf: bad value")

// Set overrides a parameter value. Unknown keys are an error, as in Spark's
// strict configuration validation. A wired key takes only the values its
// catalogue entry accepts, so a registry holds only values a run can take. A
// key whose default names another key (executor.threads defaults to
// executor.cores) takes that name, or a value of the kind the named key's
// default is. Any other value is an ErrBadValue naming the key, and leaves the
// registry as it was.
func (r *Registry) Set(key, value string) error {
	p, ok := r.params[key]
	if !ok {
		return fmt.Errorf("conf: unknown parameter %q", key)
	}
	if p.accepts.ok != nil && !p.accepts.ok(value) {
		return fmt.Errorf("%w: %s = %q, want %s", ErrBadValue, key, value, p.accepts.want)
	}
	if ref, ok := r.params[p.Default]; ok && value != p.Default {
		for _, k := range kinds {
			if !k.parses(ref.Default) {
				continue
			}
			if !k.parses(value) {
				return fmt.Errorf("%w: %s = %q, want %s like %s's default %q", ErrBadValue, key, value, k.name, ref.Key, ref.Default)
			}
			break
		}
	}
	r.values[key] = value
	return nil
}

// kinds are the value kinds of the defaults that other keys' defaults name
// (executor.cores, locality.wait, network.timeout); driver.host's is free text.
var kinds = []struct {
	name   string
	parses func(string) bool
}{
	{"an integer", func(s string) bool { _, err := strconv.Atoi(s); return err == nil }},
	{"a duration", func(s string) bool { _, err := time.ParseDuration(s); return err == nil }},
}

// Get returns the effective value (override or default).
func (r *Registry) Get(key string) (string, error) {
	p, ok := r.params[key]
	if !ok {
		return "", fmt.Errorf("conf: unknown parameter %q", key)
	}
	if v, ok := r.values[key]; ok {
		return v, nil
	}
	return p.Default, nil
}

// GetInt returns the effective value parsed as an integer.
func (r *Registry) GetInt(key string) (int, error) {
	v, err := r.Get(key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("conf: %s = %q is not an integer: %w", key, v, err)
	}
	return n, nil
}

// GetBool returns the effective value parsed as a boolean.
func (r *Registry) GetBool(key string) (bool, error) {
	v, err := r.Get(key)
	if err != nil {
		return false, err
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("conf: %s = %q is not a boolean: %w", key, v, err)
	}
	return b, nil
}

// Keys returns all parameter keys, sorted.
func (r *Registry) Keys() []string {
	keys := make([]string, 0, len(r.params))
	for k := range r.params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the total number of functional parameters (Table 1: 117).
func (r *Registry) Len() int { return len(r.params) }

// CountByCategory returns the Table 1 per-category parameter counts.
func (r *Registry) CountByCategory() map[Category]int {
	out := make(map[Category]int)
	for _, p := range r.params {
		out[p.Category]++
	}
	return out
}

// InCategory returns the parameters of one category, sorted by key.
func (r *Registry) InCategory(c Category) []Parameter {
	var out []Parameter
	for _, p := range r.params {
		if p.Category == c {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ParseFlag parses a "key=value" assignment.
func ParseFlag(s string) (key, value string, err error) {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return "", "", fmt.Errorf("conf: malformed assignment %q, want key=value", s)
	}
	return k, v, nil
}

func p(key string, cat Category, def, doc string) Parameter {
	return Parameter{Key: key, Category: cat, Default: def, Doc: doc}
}

func wired(key string, cat Category, def, doc string, accepts check) Parameter {
	return Parameter{Key: key, Category: cat, Default: def, Doc: doc, Wired: true, accepts: accepts}
}

// check is the set of values a wired key accepts: ok reports whether a value
// is in it, and want names it in Set's error.
type check struct {
	ok   func(string) bool
	want string
}

// in accepts a value parse reads without error as one in [lo, hi]. A NaN is in
// no range.
func in[T cmp.Ordered](parse func(string) (T, error), lo, hi T, want string) check {
	return check{func(s string) bool {
		v, err := parse(s)
		return err == nil && v >= lo && v <= hi
	}, want}
}

// oneOf accepts exactly the values given.
func oneOf(vals ...string) check {
	return check{func(s string) bool { return slices.Contains(vals, s) }, strings.Join(vals, " or ")}
}

// boolean accepts what GetBool reads.
var boolean = check{func(s string) bool { _, err := strconv.ParseBool(s); return err == nil }, "true or false"}

// parseFloat is strconv.ParseFloat at 64 bits: a value past ±MaxFloat64 is
// an error.
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// GetFloat returns the effective value parsed as a float.
func (r *Registry) GetFloat(key string) (float64, error) {
	v, err := r.Get(key)
	if err != nil {
		return 0, err
	}
	f, err := parseFloat(v)
	if err != nil {
		return 0, fmt.Errorf("conf: %s = %q is not a number: %w", key, v, err)
	}
	return f, nil
}

// GetDuration returns the effective value parsed as a Go duration
// ("10s", "2m"), as Spark time properties.
func (r *Registry) GetDuration(key string) (time.Duration, error) {
	v, err := r.Get(key)
	if err != nil {
		return 0, err
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("conf: %s = %q is not a duration: %w", key, v, err)
	}
	return d, nil
}

// GetBytes returns the effective value parsed as a byte size with an
// optional k/m/g suffix (KiB/MiB/GiB), as Spark size properties.
func (r *Registry) GetBytes(key string) (int64, error) {
	v, err := r.Get(key)
	if err != nil {
		return 0, err
	}
	n, err := ParseBytes(v)
	if err != nil {
		return 0, fmt.Errorf("conf: %s: %w", key, err)
	}
	return n, nil
}

// ParseBytes parses "64", "32k", "128m" or "2g" into bytes. Its errors name
// the value; GetBytes adds the key.
func ParseBytes(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty size")
	}
	digits, mult := s, int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		digits, mult = s[:len(s)-1], 1<<10
	case 'm', 'M':
		digits, mult = s[:len(s)-1], 1<<20
	case 'g', 'G':
		digits, mult = s[:len(s)-1], 1<<30
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	if n > math.MaxInt64/mult || n < math.MinInt64/mult {
		return 0, fmt.Errorf("size %q overflows 64 bits", s)
	}
	return n * mult, nil
}

// Unmodelled returns, sorted, key=value for every key set to a value other
// than its default that the engine does not model (Wired false): a run
// ignores them. A nil registry has none.
func (r *Registry) Unmodelled() []string {
	if r == nil {
		return nil
	}
	var out []string
	for k, v := range r.values {
		if p := r.params[k]; !p.Wired && v != p.Default {
			out = append(out, k+"="+v)
		}
	}
	sort.Strings(out)
	return out
}

// IsSet reports whether the key has an explicit override.
func (r *Registry) IsSet(key string) bool {
	_, ok := r.values[key]
	return ok
}
