package testkit

import (
	"fmt"
	"math"
	"time"

	"repro/internal/nn"
	"repro/internal/npu"
)

// AsyncBackend is an npu.Backend that also offers the non-blocking
// invocation of the HiAI DDK (the NPU, and any serving-layer device that
// mirrors it).
type AsyncBackend interface {
	npu.Backend
	InferAsync(batch [][]float64) <-chan npu.Result
}

// Conformance checks the npu.Backend contract for any implementation:
//
//   - Infer outputs match the host model's Predict within npu.Validate's
//     1e-9 tolerance (the deployment acceptance test);
//   - Latency is 0 for non-positive batch sizes, positive for real ones,
//     and non-decreasing in batch size;
//   - if the backend is an AsyncBackend, InferAsync returns exactly
//     Infer's outputs and reports Latency(len(batch)).
//
// probes must be non-empty rows of the model's input dimension.
func Conformance(b npu.Backend, model *nn.MLP, probes [][]float64) error {
	if len(probes) == 0 {
		return fmt.Errorf("testkit: conformance needs at least one probe")
	}
	if b.Name() == "" {
		return fmt.Errorf("testkit: backend has an empty name")
	}
	if err := npu.Validate(b, model, probes); err != nil {
		return fmt.Errorf("backend %q: %w", b.Name(), err)
	}

	// Latency shape.
	for _, n := range []int{0, -1} {
		if d := b.Latency(n); d != 0 {
			return fmt.Errorf("backend %q: Latency(%d) = %v, want 0", b.Name(), n, d)
		}
	}
	prev := time.Duration(0)
	for _, n := range []int{1, 2, len(probes), 16, 64} {
		d := b.Latency(n)
		if d <= 0 {
			return fmt.Errorf("backend %q: Latency(%d) = %v, want > 0", b.Name(), n, d)
		}
		if d < prev {
			return fmt.Errorf("backend %q: Latency(%d) = %v decreased below %v", b.Name(), n, d, prev)
		}
		prev = d
	}

	// Async agreement.
	if ab, ok := b.(AsyncBackend); ok {
		res := <-ab.InferAsync(probes)
		want := b.Infer(probes)
		if len(res.Outputs) != len(want) {
			return fmt.Errorf("backend %q: InferAsync returned %d outputs, want %d",
				b.Name(), len(res.Outputs), len(want))
		}
		for i := range want {
			if len(res.Outputs[i]) != len(want[i]) {
				return fmt.Errorf("backend %q: InferAsync output %d has dim %d, want %d",
					b.Name(), i, len(res.Outputs[i]), len(want[i]))
			}
			for o := range want[i] {
				if res.Outputs[i][o] != want[i][o] {
					return fmt.Errorf("backend %q: InferAsync output %d[%d] = %g, Infer gives %g",
						b.Name(), i, o, res.Outputs[i][o], want[i][o])
				}
			}
		}
		if res.Latency != b.Latency(len(probes)) {
			return fmt.Errorf("backend %q: InferAsync latency %v, Latency(%d) gives %v",
				b.Name(), res.Latency, len(probes), b.Latency(len(probes)))
		}
	}
	return nil
}

// ValidateQuantized compares the FP16-quantized model (npu.QuantizeFP16)
// against the FP32 host model on the probe inputs and returns the maximum
// absolute output difference. It errors if the difference exceeds tol —
// chosen below the migration hysteresis, so quantization cannot flip a
// decision.
func ValidateQuantized(m *nn.MLP, probes [][]float64, tol float64) (maxDiff float64, err error) {
	q := npu.QuantizeFP16(m)
	for i, x := range probes {
		a, b := m.Predict(x), q.Predict(x)
		for o := range a {
			d := math.Abs(a[o] - b[o])
			if d > maxDiff {
				maxDiff = d
			}
			if d > tol {
				return maxDiff, fmt.Errorf(
					"testkit: probe %d output %d: fp16 deviation %g exceeds %g", i, o, d, tol)
			}
		}
	}
	return maxDiff, nil
}
