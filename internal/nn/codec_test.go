package nn

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceJSON is what encoding/json writes for m: the artifact format
// MarshalJSON must reproduce byte for byte.
func referenceJSON(m *MLP) ([]byte, error) {
	return json.Marshal(mlpJSON{Sizes: m.sizes, Weights: m.weights, Biases: m.biases})
}

// decodeReference is the encoding/json path UnmarshalJSON must agree with
// on every input.
func decodeReference(data []byte) (mlpJSON, error) {
	var j mlpJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return j, err
	}
	return j, j.check()
}

// checkEncode fails t unless MarshalJSON and encoding/json agree on m: the
// same bytes, or the same error text.
func checkEncode(t *testing.T, name string, m *MLP) {
	t.Helper()
	got, gotErr := m.MarshalJSON()
	want, wantErr := referenceJSON(m)
	if (gotErr != nil) != (wantErr != nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: MarshalJSON differs from encoding/json:\n got %.200s\nwant %.200s", name, got, want)
	}
}

// edgeFloats are values where encoding/json's number format changes shape:
// the 'f'/'e' cutoffs on both sides, signed zero, subnormals, the largest
// finite float64 and integral values.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, -1e-6, 9.99e-7, -9.99e-7, 1e-7, 1e-10,
	1.5e-300, 1e21, -1e21, 9.99e20, 1e20, 5e-324, -5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 3, -42, 1 << 53, 123456789012,
	0.1, 1.0 / 3, -2.5e-5,
}

func TestMarshalJSONMatchesEncodingJSON(t *testing.T) {
	topologies := [][]int{{1, 1}, {2, 3, 1}, {21, 8}, {5, 7, 3, 2}, {21, 16, 16, 8}, {3, 1, 4, 1, 5}}
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 1000; seed++ {
		m := NewMLP(topologies[seed%int64(len(topologies))], seed)
		// Spread magnitudes over 1e-40..1e40 so both number forms occur,
		// and give the zero-initialized biases values too.
		m.MapParams(func(x float64) float64 {
			if rng.Intn(4) == 0 {
				return rng.NormFloat64()
			}
			return x * math.Pow(10, float64(rng.Intn(81)-40))
		})
		checkEncode(t, "seeded model", m)
	}
	checkEncode(t, "paper topology", NewMLP(PaperTopology(21, 8), 7))

	edge := NewMLP([]int{len(edgeFloats), 1}, 1)
	copy(edge.weights[0], edgeFloats)
	checkEncode(t, "edge values", edge)
	for _, x := range edgeFloats {
		one := NewMLP([]int{1, 1}, 1)
		one.weights[0][0], one.biases[0][0] = x, -x
		checkEncode(t, "edge value", one)
	}

	checkEncode(t, "zero value", &MLP{})
	checkEncode(t, "nil and empty rows", &MLP{sizes: []int{}, weights: [][]float64{nil, {}}, biases: [][]float64{{}}})
	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := NewMLP([]int{2, 2}, 1)
		if i%2 == 0 {
			m.weights[0][3] = bad
		} else {
			m.biases[0][1] = bad
		}
		if _, err := m.MarshalJSON(); err == nil {
			t.Fatalf("MarshalJSON accepted %v", bad)
		}
		checkEncode(t, "unsupported value", m)
	}
}

// FuzzModelJSON holds UnmarshalJSON to the encoding/json path: the same
// sizes, the same weight and bias bits, or the same error text, whether
// called directly or through json.Unmarshal. testdata/fuzz/FuzzModelJSON
// holds non-canonical inputs the fast path must hand over.
func FuzzModelJSON(f *testing.F) {
	for _, sizes := range [][]int{{2, 3, 1}, {1, 1}} {
		m := NewMLP(sizes, 1)
		m.biases[0][0] = 1e-9
		data, err := m.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeReference(data)
		var m MLP
		gotErr := m.UnmarshalJSON(data)
		var viaJSON MLP
		outerErr := json.Unmarshal(data, &viaJSON)
		if wantErr != nil {
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("error %v, want %v", gotErr, wantErr)
			}
			if outerErr == nil || outerErr.Error() != wantErr.Error() {
				t.Fatalf("through json.Unmarshal: error %v, want %v", outerErr, wantErr)
			}
			return
		}
		if gotErr != nil || outerErr != nil {
			t.Fatalf("error %v (through json.Unmarshal %v), want none", gotErr, outerErr)
		}
		for _, got := range []*MLP{&m, &viaJSON} {
			if !slices.Equal(got.sizes, want.Sizes) || !sameRows(got.weights, want.Weights) || !sameRows(got.biases, want.Biases) {
				t.Fatalf("decoded %v, want %v", got, want)
			}
		}
	})
}

// sameRows reports whether a and b hold the same rows, bit for bit.
func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for l := range a {
		if diffSlices(a[l], b[l]) != "" {
			return false
		}
	}
	return true
}
