package scenario

import (
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Marshal renders the spec as canonical YAML: fields in schema declaration
// order, sorted conf keys, zero-valued optional fields omitted.
// Parse(Marshal(sp)) yields a spec reflect.DeepEqual to sp — the property
// FuzzScenarioSpec drives — so specs survive load → edit → save round
// trips losslessly.
func Marshal(sp *Spec) []byte {
	var b strings.Builder
	w := &yw{b: &b}
	w.fields(0, reflect.ValueOf(sp).Elem())
	return []byte(b.String())
}

// fields writes struct v's schema fields at level: those whose if= clause
// holds, required ones always, optional ones unless zero.
func (w *yw) fields(level int, v reflect.Value) {
	for _, f := range schemas[v.Type()] {
		if fv := v.Field(f.index); f.applies(v) && (f.req || !fv.IsZero()) {
			w.value(level, f.key, fv)
		}
	}
}

func (w *yw) value(level int, key string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			w.value(level, key, v.Elem())
		}
	case reflect.Struct:
		w.key(level, key)
		w.fields(level+1, v)
	case reflect.Map:
		conf := v.Interface().(map[string]string)
		if len(conf) == 0 {
			return
		}
		w.key(level, key)
		for _, k := range slices.Sorted(maps.Keys(conf)) {
			w.kv(level+1, k, quoteScalar(conf[k], false))
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Struct {
			w.key(level, key)
			for i := 0; i < v.Len(); i++ {
				w.item(level + 1)
				w.fields(level+2, v.Index(i))
			}
			return
		}
		// Scalar lists are flow sequences ("[a, b]").
		rendered := make([]string, v.Len())
		for i := range rendered {
			rendered[i] = scalarText(v.Index(i), true)
		}
		w.kv(level, key, "["+strings.Join(rendered, ", ")+"]")
	default:
		w.kv(level, key, scalarText(v, false))
	}
}

// scalarText renders a string, integer, duration or float value.
func scalarText(v reflect.Value, inFlow bool) string {
	switch {
	case v.Kind() == reflect.String:
		return quoteScalar(v.String(), inFlow)
	case v.Type() == durationType:
		return time.Duration(v.Int()).String()
	case v.CanInt():
		return strconv.FormatInt(v.Int(), 10)
	default:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	}
}

// yw is the canonical YAML writer. Sequence items are emitted as "- " with
// the first mapping entry inline, matching the parser's dash handling.
type yw struct {
	b *strings.Builder
	// pendingItem makes the next kv/str land on a "- " dash line.
	pendingItem int
}

func (w *yw) indent(level int) {
	if w.pendingItem > 0 {
		// The dash occupies the two columns before the item's inner
		// indent, so continuation fields (one level deeper) line up
		// with the field riding the dash line.
		w.b.WriteString(strings.Repeat("  ", w.pendingItem))
		w.b.WriteString("- ")
		w.pendingItem = 0
		return
	}
	w.b.WriteString(strings.Repeat("  ", level))
}

// key opens a nested block ("cluster:").
func (w *yw) key(level int, key string) {
	w.indent(level)
	w.b.WriteString(key)
	w.b.WriteString(":\n")
}

// item starts a sequence item whose first field rides the dash line.
func (w *yw) item(level int) { w.pendingItem = level }

// kv writes "key: value" with the value already rendered.
func (w *yw) kv(level int, key, value string) {
	w.indent(level)
	w.b.WriteString(key)
	w.b.WriteString(": ")
	w.b.WriteString(value)
	w.b.WriteByte('\n')
}

// quoteScalar renders a string scalar. Plain wherever the parser would
// read it back verbatim; single-quoted (with ” doubling) otherwise.
// inFlow additionally guards the flow-sequence delimiters.
func quoteScalar(s string, inFlow bool) string {
	if plainSafe(s, inFlow) {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

func plainSafe(s string, inFlow bool) bool {
	if s == "" {
		return false
	}
	if strings.ContainsAny(s, "'\"#\t\n") {
		return false
	}
	if s[0] == ' ' || s[len(s)-1] == ' ' || s[0] == '[' || s[0] == '{' || s[0] == '&' || s[0] == '*' {
		return false
	}
	if inFlow && strings.ContainsAny(s, ",[]{}") {
		return false
	}
	return true
}
