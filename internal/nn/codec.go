package nn

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// The model artifact is the JSON object
//
//	{"sizes":[21,64,...],"weights":[[w...],...],"biases":[[b...],...]}
//
// exactly as encoding/json writes mlpJSON. MarshalJSON writes those bytes in
// one pass; UnmarshalJSON reads that canonical form in one pass and hands
// every other input (whitespace, another key order, null, a non-integer
// size, ...) to encoding/json, which stays the reference: the tests hold
// both directions byte- and bit-equal to it, error text included.

// mlpJSON is the serialization schema.
type mlpJSON struct {
	Sizes   []int       `json:"sizes"`
	Weights [][]float64 `json:"weights"`
	Biases  [][]float64 `json:"biases"`
}

// MarshalJSON implements json.Marshaler. Its output equals
// json.Marshal(mlpJSON{...}) byte for byte, and NaN or ±Inf fails with the
// same *json.UnsupportedValueError.
func (m *MLP) MarshalJSON() ([]byte, error) {
	// Reserve room for the usual 20-odd bytes a weight takes in shortest
	// round-trip form, so the buffer rarely grows.
	n := 64 + 21*len(m.sizes)
	for _, rows := range [][][]float64{m.weights, m.biases} {
		for _, row := range rows {
			n += 25 * len(row)
		}
	}
	b := make([]byte, 0, n)
	b = append(b, `{"sizes":`...)
	if m.sizes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, s := range m.sizes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(s), 10)
		}
		b = append(b, ']')
	}
	var err error
	b = append(b, `,"weights":`...)
	if b, err = appendRows(b, m.weights); err != nil {
		return nil, err
	}
	b = append(b, `,"biases":`...)
	if b, err = appendRows(b, m.biases); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// appendRows appends rows as encoding/json writes a [][]float64.
func appendRows(b []byte, rows [][]float64) ([]byte, error) {
	if rows == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		if row == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for k, x := range row {
			if k > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendFloat(b, x); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// appendFloat appends x as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' form unless |x| < 1e-6 or |x| ≥ 1e21,
// whose 'e' form drops a leading exponent zero (1e-07 → 1e-7).
func appendFloat(b []byte, x float64) ([]byte, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(x), Str: strconv.FormatFloat(x, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// UnmarshalJSON implements json.Unmarshaler. The canonical form decodes in
// one pass; any other input decodes through encoding/json, so values and
// error text are the same for every input.
func (m *MLP) UnmarshalJSON(data []byte) error {
	j, ok := decodeCanonical(string(data))
	if !ok {
		if err := json.Unmarshal(data, &j); err != nil {
			return err
		}
	}
	if err := j.check(); err != nil {
		return err
	}
	m.sizes = j.Sizes
	m.weights = j.Weights
	m.biases = j.Biases
	return nil
}

// check reports a decoded network whose rows do not fit its sizes.
func (j *mlpJSON) check() error {
	if len(j.Sizes) < 2 || len(j.Weights) != len(j.Sizes)-1 || len(j.Biases) != len(j.Sizes)-1 {
		return fmt.Errorf("nn: malformed model JSON")
	}
	for l, s := range j.Sizes {
		if s <= 0 {
			return fmt.Errorf("nn: layer %d has non-positive width %d", l, s)
		}
	}
	for l := 0; l+1 < len(j.Sizes); l++ {
		if len(j.Weights[l]) != j.Sizes[l]*j.Sizes[l+1] || len(j.Biases[l]) != j.Sizes[l+1] {
			return fmt.Errorf("nn: layer %d shape mismatch", l)
		}
	}
	return nil
}

// decodeCanonical parses s if it is exactly what MarshalJSON writes for a
// well-formed network. It returns the zero value and false for anything
// else, including a row whose length does not match sizes; encoding/json
// then decodes s and the shape check reports the fault.
func decodeCanonical(s string) (mlpJSON, bool) {
	r := canonReader{s: s}
	if !r.lit(`{"sizes":[`) {
		return mlpJSON{}, false
	}
	var sizes []int
	for {
		// A layer wider than the input cannot have its row in it.
		n, err := strconv.Atoi(r.number())
		if err != nil || n <= 0 || n > len(s) {
			return mlpJSON{}, false
		}
		sizes = append(sizes, n)
		if r.lit("]") {
			break
		}
		if !r.lit(",") {
			return mlpJSON{}, false
		}
	}
	if len(sizes) < 2 {
		return mlpJSON{}, false
	}
	wlens, blens := make([]int, len(sizes)-1), sizes[1:]
	for l := range wlens {
		wlens[l] = sizes[l] * sizes[l+1]
	}
	if !r.lit(`,"weights":`) {
		return mlpJSON{}, false
	}
	weights, ok := r.rows(wlens)
	if !ok || !r.lit(`,"biases":`) {
		return mlpJSON{}, false
	}
	biases, ok := r.rows(blens)
	if !ok || !r.lit("}") || r.i != len(s) {
		return mlpJSON{}, false
	}
	return mlpJSON{Sizes: sizes, Weights: weights, Biases: biases}, true
}

// canonReader is decodeCanonical's cursor over the input.
type canonReader struct {
	s string
	i int
}

// lit consumes p if the input continues with it.
func (r *canonReader) lit(p string) bool {
	if !strings.HasPrefix(r.s[r.i:], p) {
		return false
	}
	r.i += len(p)
	return true
}

// rows reads a JSON array of len(lens) number arrays, row l holding exactly
// lens[l] numbers.
func (r *canonReader) rows(lens []int) ([][]float64, bool) {
	if !r.lit("[") {
		return nil, false
	}
	out := make([][]float64, len(lens))
	for l, n := range lens {
		if (l > 0 && !r.lit(",")) || !r.lit("[") || n > len(r.s)-r.i {
			return nil, false
		}
		row := make([]float64, n)
		for k := range row {
			if k > 0 && !r.lit(",") {
				return nil, false
			}
			x, err := strconv.ParseFloat(r.number(), 64)
			if err != nil {
				return nil, false
			}
			row[k] = x
		}
		if !r.lit("]") {
			return nil, false
		}
		out[l] = row
	}
	return out, r.lit("]")
}

// number consumes one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it as a
// substring of the input, or "" if the input does not continue with one.
func (r *canonReader) number() string {
	s, i := r.s, r.i
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = skipDigits(s, i)
	default:
		return ""
	}
	if i < len(s) && s[i] == '.' {
		if j := skipDigits(s, i+1); j > i+1 {
			i = j
		} else {
			return ""
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if j := skipDigits(s, i); j > i {
			i = j
		} else {
			return ""
		}
	}
	start := r.i
	r.i = i
	return s[start:i]
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(s string, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}
