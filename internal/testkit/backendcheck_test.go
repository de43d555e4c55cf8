package testkit

import (
	"strings"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/npu"
)

// brokenBackend wraps a conforming NPU and breaks one clause of the
// backend contract at a time.
type brokenBackend struct {
	*npu.NPU
	name       string
	latency    func(n int) time.Duration
	asyncShift float64       // added to every InferAsync output
	asyncExtra time.Duration // added to the InferAsync latency
}

func (b *brokenBackend) Name() string { return b.name }

func (b *brokenBackend) Latency(n int) time.Duration {
	if b.latency != nil {
		return b.latency(n)
	}
	return b.NPU.Latency(n)
}

func (b *brokenBackend) InferAsync(batch [][]float64) <-chan npu.Result {
	res := <-b.NPU.InferAsync(batch)
	for _, row := range res.Outputs {
		for o := range row {
			row[o] += b.asyncShift
		}
	}
	res.Latency += b.asyncExtra
	ch := make(chan npu.Result, 1)
	ch <- res
	return ch
}

// TestConformanceRejectsContractBreaks checks that every clause of the
// backend contract Conformance documents is enforced, one break at a time.
func TestConformanceRejectsContractBreaks(t *testing.T) {
	m := nn.NewMLP([]int{4, 8, 2}, 1)
	probes := [][]float64{{0.1, 0.2, 0.3, 0.4}, {1, 0, -1, 0.5}}
	backend := func(edit func(*brokenBackend)) *brokenBackend {
		b := &brokenBackend{NPU: npu.New(m), name: "broken"}
		edit(b)
		return b
	}
	if err := Conformance(backend(func(*brokenBackend) {}), m, probes); err != nil {
		t.Fatalf("unbroken wrapper rejected: %v", err)
	}
	cases := []struct {
		name   string
		b      npu.Backend
		probes [][]float64
		want   string
	}{
		{"no probes", backend(func(*brokenBackend) {}), nil, "at least one probe"},
		{"empty name", backend(func(b *brokenBackend) { b.name = "" }), probes, "empty name"},
		{"wrong model", npu.New(nn.NewMLP([]int{4, 8, 2}, 2)), probes, "output"},
		{"cost of an empty batch", backend(func(b *brokenBackend) {
			b.latency = func(int) time.Duration { return time.Millisecond }
		}), probes, "Latency(0)"},
		{"free real batch", backend(func(b *brokenBackend) {
			b.latency = func(int) time.Duration { return 0 }
		}), probes, "want > 0"},
		{"latency falls with batch size", backend(func(b *brokenBackend) {
			b.latency = func(n int) time.Duration {
				if n <= 0 {
					return 0
				}
				return time.Second / time.Duration(n)
			}
		}), probes, "decreased"},
		{"async outputs differ", backend(func(b *brokenBackend) { b.asyncShift = 1e-3 }), probes, "InferAsync output"},
		{"async latency differs", backend(func(b *brokenBackend) { b.asyncExtra = time.Microsecond }), probes, "InferAsync latency"},
	}
	for _, c := range cases {
		err := Conformance(c.b, m, c.probes)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Conformance = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
