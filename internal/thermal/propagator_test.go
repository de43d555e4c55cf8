package thermal

import (
	"math"
	"testing"
)

// twoNode builds a network with a known stability step: node 0 has
// Cap = 1 J/K and 2 W/K to ambient plus 0.5 W/K to node 1, so
// maxStep = 0.5·1/2.5 = 0.2 s exactly (binary-representable).
func twoNode() *Network {
	n := NewNetwork([]Node{{Name: "a", Cap: 1}, {Name: "b", Cap: 4}}, 25)
	n.SetAmbientCoupling(0, 2)
	n.SetAmbientCoupling(1, 0.5)
	n.AddCoupling(0, 1, 0.5)
	return n
}

// TestSubstepCounts is the regression test for the substep boundary bug:
// a dt that is an exact multiple of the stability step must use exactly
// dt/h substeps, not one more (the old code computed int(dt/h)+1, taking
// a spurious extra substep — and a finer h — on exact ratios).
func TestSubstepCounts(t *testing.T) {
	n := twoNode()
	if h := n.stableStep(); h != 0.2 {
		t.Fatalf("stable step = %g, want 0.2", h)
	}
	cases := []struct {
		dt   float64
		want int
	}{
		{0.2, 1},  // dt == h exactly: one substep, not two
		{0.4, 2},  // exact multiple: dt/h substeps
		{0.8, 4},  // exact multiple
		{0.1, 1},  // below the limit: single substep
		{0.3, 2},  // fractional ratio 1.5: round up
		{0.5, 3},  // fractional ratio 2.5: round up
		{0.41, 3}, // just above an exact multiple: round up
		{10, 50},  // long dt, exact ratio
	}
	for _, c := range cases {
		if got := n.Substeps(c.dt); got != c.want {
			t.Errorf("Substeps(%g) = %d, want %d", c.dt, got, c.want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Substeps(0): expected panic")
		}
	}()
	n.Substeps(0)
}

// TestKernelMatchesReferenceBitwise pins the numerical contract: with a
// single substep per tick (every fig-suite configuration), the propagator
// kernel and the naive per-substep reference produce bit-identical
// temperatures over a long, feedback-free power schedule.
func TestKernelMatchesReferenceBitwise(t *testing.T) {
	for _, fan := range []bool{true, false} {
		fast := HiKey970Network(fan, 25)
		ref := HiKey970Network(fan, 25)
		ref.SetKernel(KernelReference)
		if s := fast.Substeps(0.01); s != 1 {
			t.Fatalf("fig-suite dt: %d substeps, want 1", s)
		}
		p := make([]float64, 9)
		for tick := 0; tick < 2000; tick++ {
			for i := range p {
				p[i] = float64((tick*7+i*13)%11) * 0.3
			}
			fast.Step(p, 0.01)
			ref.Step(p, 0.01)
		}
		for i := range fast.t {
			if fast.t[i] != ref.t[i] {
				t.Errorf("fan=%v node %d: kernel %v != reference %v (diff %g)",
					fan, i, fast.t[i], ref.t[i], fast.t[i]-ref.t[i])
			}
		}
	}
}

// TestCollapsedMatchesIterated checks the repeated-squaring collapse
// against stepping the substeps one by one: for k > 1 the results must
// agree to rounding (the collapse reassociates the recurrence, so exact
// equality is not expected).
func TestCollapsedMatchesIterated(t *testing.T) {
	for _, dt := range []float64{0.4, 0.5, 1.0, 10} { // k = 2, 3, 5, 50
		fast := twoNode()
		ref := twoNode()
		ref.SetKernel(KernelReference)
		p := []float64{3, 1}
		for tick := 0; tick < 200; tick++ {
			fast.Step(p, dt)
			ref.Step(p, dt)
		}
		for i := range fast.t {
			diff := math.Abs(fast.t[i] - ref.t[i])
			scale := math.Max(1, math.Abs(ref.t[i]))
			if diff/scale > 1e-11 {
				t.Errorf("dt=%g node %d: collapsed %v vs iterated %v (rel %g)",
					dt, i, fast.t[i], ref.t[i], diff/scale)
			}
		}
	}
}

// TestPropagatorSteadyState: under constant power the kernel must
// converge to the equilibrium the linear solve predicts, for both a
// single-substep and a collapsed multi-substep tick.
func TestPropagatorSteadyState(t *testing.T) {
	for _, dt := range []float64{0.01, 0.5} {
		n := HiKey970Network(true, 25)
		p := make([]float64, 9)
		p[4], p[6], p[PkgNode] = 2, 3, 0.5
		want := n.SteadyState(p)
		for i := 0; i < int(3000/dt); i++ {
			n.Step(p, dt)
		}
		for i := range want {
			if math.Abs(n.t[i]-want[i]) > 1e-6 {
				t.Errorf("dt=%g node %d: %v, steady state %v", dt, i, n.t[i], want[i])
			}
		}
	}
}

// TestPropagatorInvalidation: coupling, ambient-coupling, kernel, and
// ambient mutations must all rebuild the cache — including a direct TAmb
// field write, which Step self-heals on.
func TestPropagatorInvalidation(t *testing.T) {
	p := []float64{2, 1}

	// SetAmbient and a direct TAmb write must behave identically.
	a, b := twoNode(), twoNode()
	a.Step(p, 0.1) // both warm their caches at TAmb = 25
	b.Step(p, 0.1)
	a.SetAmbient(35)
	b.TAmb = 35 // bypasses the invalidation; Step must self-heal
	a.Step(p, 0.1)
	b.Step(p, 0.1)
	for i := range a.t {
		if a.t[i] != b.t[i] {
			t.Errorf("node %d: SetAmbient %v != direct TAmb write %v", i, a.t[i], b.t[i])
		}
	}

	// Mutating the topology after stepping must match a fresh network
	// built with the same final topology and identical step history.
	mutated := twoNode()
	fresh := twoNode()
	mutated.Step(p, 0.1)
	fresh.Step(p, 0.1)
	mutated.AddCoupling(0, 1, 0.25)
	fresh.AddCoupling(0, 1, 0.25)
	mutated.SetAmbientCoupling(1, 0.75)
	fresh.SetAmbientCoupling(1, 0.75)
	mutated.Step(p, 0.1)
	fresh.Step(p, 0.1)
	for i := range mutated.t {
		if mutated.t[i] != fresh.t[i] {
			t.Errorf("node %d: mutated %v != fresh %v", i, mutated.t[i], fresh.t[i])
		}
	}

	// Kernel switches must invalidate too: switching to the reference and
	// back must keep producing propagator results.
	k := twoNode()
	k.Step(p, 0.1)
	k.SetKernel(KernelReference)
	k.Step(p, 0.1)
	k.SetKernel(KernelPropagator)
	k.Step(p, 0.1)
	ref := twoNode()
	ref.Step(p, 0.1)
	ref.Step(p, 0.1)
	ref.Step(p, 0.1)
	for i := range k.t {
		if k.t[i] != ref.t[i] {
			t.Errorf("node %d after kernel round-trip: %v, want %v", i, k.t[i], ref.t[i])
		}
	}
}

// TestPropagatorKIsOne documents the premise the byte-identical
// differential gates rest on: both platform presets integrate a 10 ms
// tick in a single substep.
func TestPropagatorKIsOne(t *testing.T) {
	for name, n := range map[string]*Network{
		"hikey-fan":   HiKey970Network(true, 25),
		"hikey-nofan": HiKey970Network(false, 25),
		"tri-fan":     TriClusterNetwork(true, 25),
		"tri-nofan":   TriClusterNetwork(false, 25),
	} {
		if s := n.Substeps(0.01); s != 1 {
			t.Errorf("%s: %d substeps at dt=10ms, want 1", name, s)
		}
	}
}

// BenchmarkNetworkStepCollapsed measures the collapsed multi-substep
// path (dt = 0.5 s ⇒ 16 substeps folded into one matvec).
func BenchmarkNetworkStepCollapsed(b *testing.B) {
	n := HiKey970Network(true, 25)
	p := make([]float64, 9)
	p[4], p[6], p[PkgNode] = 2, 3, 0.5
	n.Step(p, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(p, 0.5)
	}
}
