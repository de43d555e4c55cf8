package npu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nn"
)

func TestRoundFP16Exact(t *testing.T) {
	// Values exactly representable in FP16 round to themselves.
	for _, v := range []float64{0, 1, -1, 0.5, 0.25, 2, 1024, -0.125, 65504} {
		if got := RoundFP16(v); got != v {
			t.Errorf("RoundFP16(%g) = %g, want exact", v, got)
		}
	}
}

func TestRoundFP16Precision(t *testing.T) {
	cases := []struct {
		in     float64
		maxErr float64
	}{
		{0.1, 1e-4},
		{0.333333, 2e-4},
		{1.2345, 1e-3},
		{-0.87654, 5e-4},
		{100.123, 0.1},
	}
	for _, c := range cases {
		got := RoundFP16(c.in)
		if err := math.Abs(got - c.in); err > c.maxErr {
			t.Errorf("RoundFP16(%g) = %g (err %g > %g)", c.in, got, err, c.maxErr)
		}
	}
}

func TestRoundFP16Clamps(t *testing.T) {
	if got := RoundFP16(1e6); got != 65504 {
		t.Errorf("overflow: %g, want 65504", got)
	}
	if got := RoundFP16(-1e6); got != -65504 {
		t.Errorf("negative overflow: %g, want -65504", got)
	}
	if got := RoundFP16(1e-12); got != 0 {
		t.Errorf("underflow: %g, want 0", got)
	}
}

func TestRoundFP16Idempotent(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		if x > 1e5 {
			x = 1e5
		}
		if x < -1e5 {
			x = -1e5
		}
		once := RoundFP16(x)
		return RoundFP16(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRoundFP16RelativeErrorBound(t *testing.T) {
	// For normal-range values, FP16 relative error is at most 2^-11.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		x := (rng.Float64()*2 - 1) * 100
		if math.Abs(x) < 1e-3 {
			continue
		}
		if rel := math.Abs(RoundFP16(x)-x) / math.Abs(x); rel > 1.0/2048 {
			t.Fatalf("RoundFP16(%g): relative error %g", x, rel)
		}
	}
}

func TestQuantizeFP16LeavesOriginal(t *testing.T) {
	m := nn.NewMLP([]int{4, 8, 2}, 1)
	x := []float64{0.3, -0.7, 1.1, 0.05}
	before := m.Predict(x)
	_ = QuantizeFP16(m)
	after := m.Predict(x)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("QuantizeFP16 mutated the host model")
		}
	}
}
