package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStartsAtAmbient(t *testing.T) {
	n := HiKey970Network(true, 25)
	for i, v := range n.Temps() {
		if v != 25 {
			t.Errorf("node %d starts at %g, want 25", i, v)
		}
	}
	if n.Max() != 25 {
		t.Errorf("Max = %g, want 25", n.Max())
	}
}

func TestZeroPowerStaysAtAmbient(t *testing.T) {
	n := HiKey970Network(true, 25)
	p := make([]float64, 9)
	n.Step(p, 100)
	for i, v := range n.Temps() {
		if math.Abs(v-25) > 1e-9 {
			t.Errorf("node %d drifted to %g with zero power", i, v)
		}
	}
}

func TestStepConvergesToSteadyState(t *testing.T) {
	n := HiKey970Network(true, 25)
	p := make([]float64, 9)
	p[6] = 3.0 // one hot big core
	p[PkgNode] = 0.5
	want := n.SteadyState(p)
	// Simulate long enough for the slow package time constant (~50 s).
	for i := 0; i < 600; i++ {
		n.Step(p, 1)
	}
	for i, v := range n.Temps() {
		if math.Abs(v-want[i]) > 0.1 {
			t.Errorf("node %d: transient %g vs steady state %g", i, v, want[i])
		}
	}
}

func TestSteadyStateSuperposition(t *testing.T) {
	// The network is linear: steady state of a+b equals sum of responses
	// above ambient.
	n := HiKey970Network(false, 25)
	pa := make([]float64, 9)
	pb := make([]float64, 9)
	pa[0], pb[7] = 1.0, 2.0
	sum := make([]float64, 9)
	for i := range sum {
		sum[i] = pa[i] + pb[i]
	}
	ta, tb, tsum := n.SteadyState(pa), n.SteadyState(pb), n.SteadyState(sum)
	for i := range tsum {
		if got, want := tsum[i]-25, (ta[i]-25)+(tb[i]-25); math.Abs(got-want) > 1e-6 {
			t.Errorf("node %d: superposition violated: %g vs %g", i, got, want)
		}
	}
}

func TestFanCoolsBetter(t *testing.T) {
	p := make([]float64, 9)
	p[5], p[6] = 2.5, 2.5
	p[PkgNode] = 0.5
	fan := HiKey970Network(true, 25).SteadyState(p)
	noFan := HiKey970Network(false, 25).SteadyState(p)
	if noFan[PkgNode] <= fan[PkgNode]+5 {
		t.Errorf("package: no-fan %g vs fan %g, want clearly hotter without fan",
			noFan[PkgNode], fan[PkgNode])
	}
	for i := 0; i < 8; i++ {
		if noFan[i] <= fan[i] {
			t.Errorf("core %d not hotter without fan", i)
		}
	}
}

func TestSpatialCoupling(t *testing.T) {
	// Heating core 4 must raise the temperature of its idle neighbour
	// core 5 above a distant core's rise... all cores share the package,
	// so compare neighbour vs far core on the other cluster.
	n := HiKey970Network(true, 25)
	p := make([]float64, 9)
	p[4] = 3
	ss := n.SteadyState(p)
	if ss[5] <= ss[0] {
		t.Errorf("neighbour core5 (%g) not hotter than far core0 (%g)", ss[5], ss[0])
	}
	if ss[4] <= ss[5] {
		t.Errorf("heated core (%g) not hottest (%g)", ss[4], ss[5])
	}
}

func TestTemporalInertia(t *testing.T) {
	// After a short burst the package must remain warm: temperature
	// depends on history (heat capacity), unlike power.
	n := HiKey970Network(true, 25)
	p := make([]float64, 9)
	p[6] = 4
	for i := 0; i < 30; i++ {
		n.Step(p, 1)
	}
	hot := n.Temp(PkgNode)
	zero := make([]float64, 9)
	n.Step(zero, 5)
	after := n.Temp(PkgNode)
	if after <= 25.5 {
		t.Errorf("package cooled to %g within 5 s, heat capacity too small", after)
	}
	if after >= hot {
		t.Errorf("package did not cool at all: %g -> %g", hot, after)
	}
}

func TestBigCoreRunsHotter(t *testing.T) {
	// Same power into a big core vs a LITTLE core: the LITTLE core has a
	// higher vertical resistance so it gets hotter per watt.
	n := HiKey970Network(true, 25)
	p := make([]float64, 9)
	p[0] = 1.5
	ssL := n.SteadyState(p)
	p[0] = 0
	p[4] = 1.5
	ssB := n.SteadyState(p)
	if ssL[0] <= ssB[4] {
		t.Errorf("LITTLE core per-watt rise (%g) should exceed big's (%g) (thinner core)",
			ssL[0], ssB[4])
	}
}

func TestResetAndSetTemps(t *testing.T) {
	n := HiKey970Network(true, 25)
	p := make([]float64, 9)
	p[4] = 3
	n.Step(p, 10)
	if n.Max() <= 25 {
		t.Fatal("network did not heat up")
	}
	n.Reset()
	for i, v := range n.Temps() {
		if v != 25 {
			t.Errorf("node %d not reset: %g", i, v)
		}
	}
	warm := make([]float64, 9)
	for i := range warm {
		warm[i] = 40
	}
	n.SetTemps(warm)
	if n.Temp(3) != 40 {
		t.Errorf("SetTemps not applied: %g", n.Temp(3))
	}
}

func TestStepStabilityProperty(t *testing.T) {
	// For any bounded power input, temperatures must remain bounded
	// between ambient and the hotspot implied by total power through the
	// worst resistance chain — i.e. the integrator must not diverge.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := HiKey970Network(r.Intn(2) == 0, 25)
		p := make([]float64, 9)
		total := 0.0
		for i := range p {
			p[i] = r.Float64() * 4
			total += p[i]
		}
		for s := 0; s < 50; s++ {
			n.Step(p, 0.01+r.Float64()*2)
		}
		upper := 25 + total*(9+4) + 1 // R_amb + worst vertical resistance
		for _, v := range n.Temps() {
			if v < 25-1e-6 || v > upper || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	n := HiKey970Network(true, 25)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("short power vector", func() { n.Step(make([]float64, 3), 1) })
	mustPanic("zero dt", func() { n.Step(make([]float64, 9), 0) })
	mustPanic("self coupling", func() { n.AddCoupling(1, 1, 0.1) })
	mustPanic("negative conductance", func() { n.AddCoupling(0, 1, -0.1) })
	mustPanic("negative ambient", func() { n.SetAmbientCoupling(0, -1) })
	mustPanic("bad SetTemps", func() { n.SetTemps([]float64{1}) })
	mustPanic("bad steady state", func() { n.SteadyState([]float64{1}) })
	mustPanic("singular network", func() {
		iso := NewNetwork([]Node{{Name: "a", Cap: 1}}, 25)
		iso.SteadyState([]float64{1})
	})
}

func TestCalibrationSanity(t *testing.T) {
	// Two busy big cores at ~2.5 W each plus uncore: with fan the package
	// should settle in the 40-60 °C band the paper reports for loaded
	// operation; without fan clearly hotter but below silicon limits.
	p := make([]float64, 9)
	p[4], p[5], p[PkgNode] = 2.5, 2.5, 0.5
	fan := HiKey970Network(true, 25).SteadyState(p)
	noFan := HiKey970Network(false, 25).SteadyState(p)
	if fan[PkgNode] < 40 || fan[PkgNode] > 60 {
		t.Errorf("fan package steady state = %.1f, want 40-60 °C", fan[PkgNode])
	}
	if noFan[PkgNode] < 60 || noFan[PkgNode] > 95 {
		t.Errorf("no-fan package steady state = %.1f, want 60-95 °C", noFan[PkgNode])
	}
}

func TestTempsReturnsCopy(t *testing.T) {
	n := HiKey970Network(true, 25)
	ts := n.Temps()
	ts[0] = 999
	if n.Temp(0) == 999 {
		t.Error("Temps returned the live internal slice")
	}
}

func TestStepAndTempsIntoDoNotAllocate(t *testing.T) {
	n := HiKey970Network(true, 25)
	p := make([]float64, 9)
	p[4], p[6] = 2, 3
	dst := make([]float64, len(n.Nodes))
	n.Step(p, 0.01) // warm the lazy stableStep cache
	allocs := testing.AllocsPerRun(100, func() {
		n.Step(p, 0.01)
		copy(dst, n.TempsView())
	})
	if allocs != 0 {
		t.Errorf("Step and a TempsView copy allocate %.1f objects per tick, want 0", allocs)
	}
}

func BenchmarkNetworkStep(b *testing.B) {
	n := HiKey970Network(true, 25)
	p := make([]float64, 9)
	p[4], p[6], p[PkgNode] = 2, 3, 0.5
	n.Step(p, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(p, 0.01)
	}
}
