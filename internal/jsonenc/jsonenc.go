// Package jsonenc appends JSON scalars to a caller-owned buffer, producing
// exactly the bytes encoding/json would write for the same value. The
// telemetry JSONL dump and the engine trace log are byte-locked formats that
// were defined by encoding/json's reflection encoder; this package lets
// their hot paths drop the reflection and the per-value allocations without
// owning a second definition of the format — anything off the common path
// is handed back to encoding/json.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
)

// AppendFloat appends v as encoding/json renders a float64: fixed notation,
// or exponent notation (two-digit negative exponents trimmed, e-09 → e-9)
// when |v| < 1e-6 or |v| >= 1e21. NaN and ±Inf have no JSON form and return
// encoding/json's own *json.UnsupportedValueError.
func AppendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		_, err := json.Marshal(v)
		return b, err
	}
	abs := math.Abs(v)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, v, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b, nil
	}
	return strconv.AppendFloat(b, v, 'f', -1, 64), nil
}

// AppendString appends s as a JSON string. Printable ASCII that needs no
// escaping is copied between quotes; a string holding a quote, backslash,
// HTML-sensitive byte (<, >, &), control byte or any non-ASCII byte goes
// through json.Marshal, which owns every escaping rule.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
