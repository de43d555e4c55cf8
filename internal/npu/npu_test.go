package npu

import (
	"math"
	"testing"
	"time"

	"repro/internal/nn"
)

func model(t *testing.T) *nn.MLP {
	t.Helper()
	return nn.NewMLP(nn.PaperTopology(21, 8), 1)
}

func batch(n, dim int) [][]float64 {
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, dim)
		for j := range b[i] {
			b[i][j] = float64(i*dim+j) * 0.01
		}
	}
	return b
}

func TestNPUMatchesHostModel(t *testing.T) {
	m := model(t)
	if err := Validate(New(m), m, batch(5, 21)); err != nil {
		t.Fatal(err)
	}
	if err := Validate(NewCPU(m), m, batch(5, 21)); err != nil {
		t.Fatal(err)
	}
}

func TestNPULatencyNearlyConstant(t *testing.T) {
	n := New(model(t))
	l1 := n.Latency(1)
	l16 := n.Latency(16)
	if l16 != l1 {
		t.Errorf("within one wave latency must be constant: %v vs %v", l1, l16)
	}
	l17 := n.Latency(17)
	if l17 <= l16 {
		t.Error("second wave must add cost")
	}
	// Even a full system's worth of apps stays close to the base cost —
	// the paper's Fig. 12 "constant overhead" claim.
	if ratio := float64(n.Latency(16)) / float64(n.Latency(1)); ratio > 1.05 {
		t.Errorf("latency ratio 16/1 = %.2f, want ~1", ratio)
	}
	if n.Latency(0) != 0 {
		t.Error("empty batch must be free")
	}
}

func TestCPULatencyLinear(t *testing.T) {
	c := NewCPU(model(t))
	l1 := c.Latency(1) - c.CallOverhead
	l8 := c.Latency(8) - c.CallOverhead
	ratio := float64(l8) / float64(l1)
	if ratio < 7.9 || ratio > 8.1 {
		t.Errorf("CPU latency ratio 8/1 = %.2f, want 8 (linear)", ratio)
	}
}

func TestNPUFasterThanCPUForBatches(t *testing.T) {
	m := model(t)
	n, c := New(m), NewCPU(m)
	// At batch 1 the NPU's driver overhead makes the CPU competitive —
	// the NPU's advantage is batching (one inference per running app).
	if n.Latency(1) <= c.Latency(1) {
		t.Errorf("at batch 1: NPU %v, CPU %v — driver overhead should dominate",
			n.Latency(1), c.Latency(1))
	}
	// CPU latency overtakes NPU latency as the batch grows; by a full
	// system (8+ parallel apps) the NPU must win.
	for _, b := range []int{8, 12, 16} {
		if n.Latency(b) >= c.Latency(b) {
			t.Errorf("at batch %d: NPU %v, CPU %v — NPU should win", b, n.Latency(b), c.Latency(b))
		}
	}
}

func TestInferAsyncDelivers(t *testing.T) {
	m := model(t)
	n := New(m)
	b := batch(4, 21)
	select {
	case res := <-n.InferAsync(b):
		if len(res.Outputs) != 4 {
			t.Fatalf("outputs = %d, want 4", len(res.Outputs))
		}
		if res.Latency != n.Latency(4) {
			t.Errorf("latency = %v, want %v", res.Latency, n.Latency(4))
		}
		want := m.PredictBatch(b)
		for i := range want {
			for o := range want[i] {
				if res.Outputs[i][o] != want[i][o] {
					t.Fatal("async outputs differ from host model")
				}
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("InferAsync never delivered")
	}
}

func TestValidateDetectsMismatch(t *testing.T) {
	a := nn.NewMLP([]int{21, 8, 8}, 1)
	b := nn.NewMLP([]int{21, 8, 8}, 2) // different weights
	if err := Validate(New(a), b, batch(3, 21)); err == nil {
		t.Error("Validate accepted mismatched models")
	}
}

// TestByName builds every listed backend and checks that each serves the
// model's outputs (fp16 within its quantization band) without touching
// the shared model.
func TestByName(t *testing.T) {
	m := model(t)
	orig := m.Clone()
	in := batch(2, 21)
	want := m.PredictBatch(in)
	for _, name := range BackendNames() {
		b, ok := ByName(name, m)
		if !ok {
			t.Fatalf("ByName(%q) failed", name)
		}
		got := b.Infer(in)
		for i := range want {
			for o := range want[i] {
				if d := math.Abs(got[i][o] - want[i][o]); d > 0.05 {
					t.Errorf("%s: row %d output %d off by %g", name, i, o, d)
				}
			}
		}
	}
	if err := Validate(New(m), orig, in); err != nil {
		t.Errorf("fp16 backend mutated the shared model: %v", err)
	}
	if _, ok := ByName("quantum", m); ok {
		t.Error("ByName accepted an unknown backend")
	}
}

func TestNilModelPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"npu": func() { New(nil) },
		"cpu": func() { NewCPU(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPaperOverheadCalibration(t *testing.T) {
	// The NPU inference cost must stay ~constant and in the ~1 ms range
	// across any realistic number of applications, so that the total
	// migration-policy overhead (inference plus bookkeeping) lands at the
	// paper's ~4.3 ms per invocation independent of app count.
	n := New(model(t))
	base := n.Latency(1)
	for _, apps := range []int{1, 4, 8, 16} {
		l := n.Latency(apps)
		if l < 500*time.Microsecond || l > 2*time.Millisecond {
			t.Errorf("NPU latency at %d apps = %v, want 0.5-2 ms", apps, l)
		}
		if float64(l) > 1.3*float64(base) {
			t.Errorf("NPU latency at %d apps = %v, want within 30%% of batch-1 %v",
				apps, l, base)
		}
	}
}
