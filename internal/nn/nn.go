// Package nn implements the fully-connected neural network used by TOP-IL:
// dense layers with ReLU activations and a linear output layer, trained
// with mini-batch Adam on an MSE loss, with exponentially decaying learning
// rate and early stopping — the exact setup of the paper's Section "IL
// Model Creation and Training". A grid-search NAS (nas.go) selects the
// topology (the paper finds 4 hidden layers × 64 neurons).
//
// Only the standard library is used. Initialization is seeded, and the
// kernels (kernel.go) are fast without giving up determinism: inference is
// a register-blocked dense pass, and training runs whole minibatches
// through a preallocated workspace, on every core, skipping exact-zero
// terms. Both produce results bit-identical to the textbook per-sample
// formulation, at any core count, which the tests keep as their reference.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/telemetry"
)

// forwardPasses counts inference forward passes process-wide. A lazy
// handle binds to the default registry only when a binary installs one;
// uninstalled it is a few nanoseconds and zero allocations, so the
// deterministic hot path stays clean (counting has no time base, which is
// why this passes detrand where a clock read would not).
var forwardPasses = telemetry.LazyCounter{Name: "nn_forward_passes_total",
	Help: "MLP inference forward passes (Predict and PredictBatch rows)"}

// MLP is a multi-layer perceptron with ReLU hidden activations and a linear
// output layer.
//
// Concurrency: Predict, PredictBatch and the other read-only accessors
// never mutate the network (each call allocates its scratch or takes it
// from a process-wide pool; the network holds none), so a trained MLP may
// be shared by any number of goroutines — the serving layer's batcher
// depends on this. The guarantee
// holds only while no goroutine concurrently mutates parameters (Train,
// MapParams, CopyFrom, UnmarshalJSON); mutate a Clone instead.
type MLP struct {
	sizes   []int       // layer widths, including input and output
	weights [][]float64 // weights[l][o*in+i], layer l maps sizes[l] -> sizes[l+1]
	biases  [][]float64
}

// NewMLP creates a network with the given layer sizes (input, hidden...,
// output), initialized with He-scaled Gaussian weights from the seeded RNG.
// It panics on fewer than two layers or a non-positive width: topology is
// fixed at design time, so a bad one is a programming error.
func NewMLP(sizes []int, seed int64) *MLP {
	if len(sizes) < 2 {
		panic("nn: need at least input and output layer")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic("nn: non-positive layer size")
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		std := math.Sqrt(2 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * std
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float64, out))
	}
	return m
}

// Sizes returns the layer widths (copy).
func (m *MLP) Sizes() []int { return append([]int(nil), m.sizes...) }

// InputDim returns the expected input vector length.
func (m *MLP) InputDim() int { return m.sizes[0] }

// OutputDim returns the output vector length.
func (m *MLP) OutputDim() int { return m.sizes[len(m.sizes)-1] }

// NumParams returns the total number of trainable parameters.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.weights {
		n += len(m.weights[l]) + len(m.biases[l])
	}
	return n
}

// Predict runs a forward pass for a single input. It panics if the input
// dimension does not match the network's input layer.
func (m *MLP) Predict(x []float64) []float64 {
	m.checkInput(x)
	forwardPasses.Inc()
	out := make([]float64, m.OutputDim())
	m.forward1(x, out, make([]float64, 2*m.width()))
	return out
}

// batchScratch pools PredictBatch's activation scratch (8×the widest
// layer), the one allocation of a batch that does not outlive the call.
var batchScratch = sync.Pool{New: func() any { return new([]float64) }}

// PredictBatch runs forward passes for several inputs; row r of the result
// is bit-identical to Predict(xs[r]). It allocates only the result. It
// panics on a row whose dimension does not match the network's input
// layer.
func (m *MLP) PredictBatch(xs [][]float64) [][]float64 {
	for _, x := range xs {
		m.checkInput(x)
	}
	forwardPasses.Add(float64(len(xs)))
	outN := m.OutputDim()
	flat := make([]float64, len(xs)*outN)
	out := make([][]float64, len(xs))
	for r := range out {
		out[r] = flat[r*outN : (r+1)*outN : (r+1)*outN]
	}
	sp := batchScratch.Get().(*[]float64)
	n := 8 * m.width()
	if len(*sp) < n {
		*sp = make([]float64, n)
	}
	m.forwardDense(xs, out, (*sp)[:n])
	batchScratch.Put(sp)
	return out
}

// checkInput panics if x's length is not the network's input dimension.
func (m *MLP) checkInput(x []float64) {
	if len(x) != m.sizes[0] {
		panic(fmt.Sprintf("nn: input dim %d, want %d", len(x), m.sizes[0]))
	}
}

// width returns the widest layer's size.
func (m *MLP) width() int {
	w := 0
	for _, s := range m.sizes {
		w = max(w, s)
	}
	return w
}

// Clone returns a deep copy of the network.
func (m *MLP) Clone() *MLP {
	c := &MLP{sizes: append([]int(nil), m.sizes...)}
	for l := range m.weights {
		c.weights = append(c.weights, append([]float64(nil), m.weights[l]...))
		c.biases = append(c.biases, append([]float64(nil), m.biases[l]...))
	}
	return c
}

// MapParams applies f to every weight and bias in place — e.g. to emulate
// the precision of a deployment target.
func (m *MLP) MapParams(f func(float64) float64) {
	for l := range m.weights {
		for i := range m.weights[l] {
			m.weights[l][i] = f(m.weights[l][i])
		}
		for i := range m.biases[l] {
			m.biases[l][i] = f(m.biases[l][i])
		}
	}
}

// CopyFrom overwrites this network's parameters with src's; it panics on
// a topology mismatch.
func (m *MLP) CopyFrom(src *MLP) {
	if len(m.sizes) != len(src.sizes) {
		panic("nn: CopyFrom topology mismatch")
	}
	for i := range m.sizes {
		if m.sizes[i] != src.sizes[i] {
			panic("nn: CopyFrom topology mismatch")
		}
	}
	for l := range m.weights {
		copy(m.weights[l], src.weights[l])
		copy(m.biases[l], src.biases[l])
	}
}
