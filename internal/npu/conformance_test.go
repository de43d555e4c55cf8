package npu_test

// The backend contract checks live in testkit, which imports npu, so
// these tests sit in the external test package.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/testkit"
)

// probeInputs builds deterministic probe vectors for a model.
func probeInputs(dim, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// TestBackendConformance runs the shared contract check over both built-in
// backends (the serving layer runs it over its registry-backed backend).
func TestBackendConformance(t *testing.T) {
	m := nn.NewMLP([]int{21, 32, 8}, 3)
	probes := probeInputs(21, 6, 4)
	for _, b := range []npu.Backend{npu.New(m), npu.NewCPU(m)} {
		if err := testkit.Conformance(b, m, probes); err != nil {
			t.Errorf("Conformance(%s): %v", b.Name(), err)
		}
	}
}

// TestConformanceRejectsWrongModel ensures the checker actually detects a
// backend computing with different parameters.
func TestConformanceRejectsWrongModel(t *testing.T) {
	m := nn.NewMLP([]int{4, 8, 2}, 5)
	other := nn.NewMLP([]int{4, 8, 2}, 6)
	if err := testkit.Conformance(npu.New(other), m, probeInputs(4, 3, 7)); err == nil {
		t.Fatal("Conformance accepted a backend running a different model")
	}
}

// TestConcurrentInferAsync issues non-blocking inferences against one
// shared NPU from many goroutines — the fan-in pattern of the serving
// frontend — and verifies outputs and latency agreement. Run with -race.
func TestConcurrentInferAsync(t *testing.T) {
	m := nn.NewMLP([]int{21, 64, 8}, 8)
	dev := npu.New(m)
	probes := probeInputs(21, 16, 9)
	want := m.PredictBatch(probes)

	const goroutines = 16
	const rounds = 20
	var wg sync.WaitGroup
	errCh := make(chan string, goroutines)
	fail := func(msg string) {
		select {
		case errCh <- msg:
		default:
		}
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				lo := (g + r) % len(probes)
				hi := lo + 1 + r%3
				if hi > len(probes) {
					hi = lo + 1
				}
				batch := probes[lo:hi]
				res := <-dev.InferAsync(batch)
				if res.Latency != dev.Latency(len(batch)) {
					fail("InferAsync latency disagrees with Latency")
					return
				}
				for i := range batch {
					for o := range want[lo+i] {
						if res.Outputs[i][o] != want[lo+i][o] {
							fail("InferAsync output diverged under concurrency")
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if msg, ok := <-errCh; ok {
		t.Fatal(msg)
	}
}

func TestQuantizedModelWithinHysteresis(t *testing.T) {
	// The acceptance check of the paper's NPU deployment: FP16
	// quantization must not move ratings by anywhere near the run-time
	// hysteresis (0.2), so decisions are unchanged.
	m := nn.NewMLP(nn.PaperTopology(21, 8), 5)
	rng := rand.New(rand.NewSource(7))
	probes := make([][]float64, 64)
	for i := range probes {
		probes[i] = make([]float64, 21)
		for j := range probes[i] {
			probes[i][j] = rng.Float64() * 2
		}
	}
	maxDiff, err := testkit.ValidateQuantized(m, probes, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if maxDiff == 0 {
		t.Error("quantization changed nothing at all — emulation suspicious")
	}
	t.Logf("max FP16 output deviation: %g", maxDiff)
}

func TestValidateQuantizedDetectsViolations(t *testing.T) {
	m := nn.NewMLP(nn.PaperTopology(21, 8), 5)
	probes := [][]float64{make([]float64, 21)}
	probes[0][0] = 1
	if _, err := testkit.ValidateQuantized(m, probes, 0); err == nil {
		t.Error("zero tolerance accepted despite nonzero quantization error")
	}
}
