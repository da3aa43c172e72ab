package scenario

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"
)

// field is one tagged struct field of the spec schema (see the Spec doc
// comment for the tag grammar).
type field struct {
	index    int
	key      string
	req, pos bool
	// cond is the index of the string field an if= clause names (-1
	// without one); the field exists only while it holds one of vals. The
	// decoder fills fields in declaration order, so cond must come earlier.
	cond int
	vals []string
}

func (f field) applies(v reflect.Value) bool {
	return f.cond < 0 || slices.Contains(f.vals, v.Field(f.cond).String())
}

var durationType = reflect.TypeOf(time.Duration(0))

// schemas holds the fields of every struct type reachable from Spec, in
// declaration order. It is filled once at init and only read afterwards.
var schemas = map[reflect.Type][]field{}

func init() { addSchema(reflect.TypeOf(Spec{})) }

func addSchema(t reflect.Type) {
	if _, ok := schemas[t]; ok {
		return
	}
	fields := make([]field, t.NumField())
	schemas[t] = fields
	for i := range fields {
		sf := t.Field(i)
		opts := strings.Split(sf.Tag.Get("spec"), ",")
		f := field{index: i, key: opts[0], cond: -1}
		for _, opt := range opts[1:] {
			if rest, ok := strings.CutPrefix(opt, "if="); ok {
				name, vals, _ := strings.Cut(rest, ":")
				if cf, ok := t.FieldByName(name); ok {
					f.cond = cf.Index[0]
				}
				f.vals = strings.Split(vals, "|")
			}
			f.req = f.req || opt == "req"
			f.pos = f.pos || opt == "pos"
		}
		fields[i] = f
		et := sf.Type
		for et.Kind() == reflect.Pointer || et.Kind() == reflect.Slice {
			et = et.Elem()
		}
		if et.Kind() == reflect.Struct {
			addSchema(et)
		}
	}
}

// dec decodes a node tree into a Spec. The tree keeps every node's source
// line, so later checks find a field's position by its path (at).
type dec struct {
	file string
	root *node
	// unknown is the first unknown-field error. It is held back until the
	// rest of the document is known good, so a misspelt kind or process is
	// reported as such rather than through the fields it orphaned.
	unknown error
}

// errf formats a positional error; a %w among args stays wrapped.
func (d *dec) errf(n *node, format string, args ...any) error {
	if n != nil && n.line > 0 {
		return fmt.Errorf("%s:%d: "+format, append([]any{d.file, n.line}, args...)...)
	}
	return fmt.Errorf("%s: "+format, append([]any{d.file}, args...)...)
}

// at returns the node at path — mapping keys (string) and sequence indices
// (int) from the root — or nil when the document has none: only mappings
// have children and only sequences a seq, so a misfit step finds nothing.
func (d *dec) at(path ...any) *node {
	n := d.root
	for _, step := range path {
		switch s := step.(type) {
		case string:
			n = n.children[s]
		case int:
			if s >= len(n.seq) {
				return nil
			}
			n = n.seq[s]
		}
		if n == nil {
			return nil
		}
	}
	return n
}

// structure decodes mapping n into struct v, field by field in declaration
// order. ctx names the mapping in errors ("scenario spec", "tenants[1]").
func (d *dec) structure(n *node, ctx string, v reflect.Value) error {
	if n.kind != mappingNode {
		return d.errf(n, "%s must be a mapping, got a %s", ctx, n.kindName())
	}
	fields := schemas[v.Type()]
	used := 0
	for _, f := range fields {
		if !f.applies(v) {
			continue
		}
		fv := v.Field(f.index)
		child, ok := n.children[f.key]
		if ok {
			used++
			if err := d.value(child, f, fv); err != nil {
				return err
			}
		}
		if f.req && (!ok || fv.IsZero()) {
			return d.errf(n, "%s: missing required field %q", ctx, f.key)
		}
	}
	if used < len(n.keys) && d.unknown == nil {
		for _, key := range n.keys {
			known := func(f field) bool { return f.key == key && f.applies(v) }
			if !slices.ContainsFunc(fields, known) {
				d.unknown = d.errf(n.children[key], "unknown field %q in %s", key, ctx)
				break
			}
		}
	}
	return nil
}

// value decodes node n into v, the Go value of schema field f.
func (d *dec) value(n *node, f field, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return d.value(n, f, v.Elem())
	case reflect.Struct:
		return d.structure(n, f.key, v)
	case reflect.Map: // conf, the one map: parameter → override text
		if n.kind != mappingNode {
			return d.errf(n, "field %q must be a mapping, got a %s", f.key, n.kindName())
		}
		if len(n.keys) == 0 {
			return nil
		}
		m := make(map[string]string, len(n.keys))
		for _, key := range n.keys {
			c := n.children[key]
			if c.kind != scalarNode {
				return d.errf(c, "%s %q must be a scalar, got a %s", f.key, key, c.kindName())
			}
			m[key] = c.val
		}
		v.Set(reflect.ValueOf(m))
		return nil
	case reflect.Slice:
		if n.kind != sequenceNode {
			return d.errf(n, "field %q must be a sequence, got a %s", f.key, n.kindName())
		}
		if len(n.seq) == 0 {
			return nil
		}
		v.Set(reflect.MakeSlice(v.Type(), len(n.seq), len(n.seq)))
		for i, item := range n.seq {
			var err error
			if elem := v.Index(i); elem.Kind() == reflect.Struct {
				err = d.structure(item, label(f, i), elem)
			} else {
				err = d.scalar(item, f, i, elem)
			}
			if err != nil {
				return err
			}
		}
		return nil
	default:
		return d.scalar(n, f, -1, v)
	}
}

// label names field f, or item i of it when i >= 0, in errors.
func label(f field, i int) string {
	if i < 0 {
		return f.key
	}
	return fmt.Sprintf("%s[%d]", f.key, i)
}

// scalar decodes a string, integer, float or duration; i >= 0 marks item i
// of sequence field f.
func (d *dec) scalar(n *node, f field, i int, v reflect.Value) error {
	if n.kind != scalarNode {
		return d.errf(n, "field %q must be a scalar, got a %s", label(f, i), n.kindName())
	}
	var err error
	var want string
	var num float64
	switch {
	case v.Kind() == reflect.String:
		v.SetString(n.val)
		return nil
	case v.Type() == durationType:
		var dur time.Duration
		dur, err = time.ParseDuration(n.val)
		v.SetInt(int64(dur))
		want, num = "a duration (want e.g. 45s, 6m)", float64(dur)
	case v.CanInt():
		var x int64
		x, err = strconv.ParseInt(n.val, 10, 64)
		v.SetInt(x)
		want, num = "an integer", float64(x)
	default:
		num, err = strconv.ParseFloat(n.val, 64)
		if math.IsNaN(num) || math.IsInf(num, 0) {
			// ParseFloat accepts NaN and Inf, which no field means.
			err = strconv.ErrRange
		}
		v.SetFloat(num)
		want = "a finite number"
	}
	if err != nil {
		return d.errf(n, "field %q: %q is not %s", label(f, i), n.val, want)
	}
	if f.pos && num <= 0 {
		return d.errf(n, "field %q must be positive, got %s", label(f, i), n.val)
	}
	return nil
}
