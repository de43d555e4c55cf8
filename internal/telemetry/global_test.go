package telemetry

import (
	"testing"
)

// Global-install tests run in one test to avoid cross-test interference
// on the process-wide default registry; each section restores the
// uninstalled state.
func TestInstallAndLazyHandles(t *testing.T) {
	defer Install(nil)

	Install(nil)
	if Default() != nil {
		t.Fatal("Default after Install(nil) must be nil")
	}

	c := &LazyCounter{Name: "lazy_total", Help: "h"}
	h := &LazyHistogram{Name: "lazy_seconds", Buckets: []float64{1}}

	// No registry: all no-ops.
	c.Inc()
	h.Observe(2)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("lazy handles must no-op without an installed registry")
	}

	// Install: handles rebind and start recording.
	r1 := NewRegistry()
	Install(r1)
	if Default() != r1 {
		t.Fatal("Default() != installed registry")
	}
	c.Inc()
	c.Add(2)
	h.Observe(2)
	if c.Value() != 3 || h.Count() != 1 {
		t.Fatalf("lazy handles not bound: c=%v h=%d", c.Value(), h.Count())
	}
	if r1.Counter("lazy_total", "h").Value() != 3 {
		t.Fatal("lazy counter did not write into installed registry")
	}

	// Re-install a different registry: handles rebind, old totals stay put.
	r2 := NewRegistry()
	Install(r2)
	c.Inc()
	if got := r2.Counter("lazy_total", "h").Value(); got != 1 {
		t.Fatalf("rebound counter = %v, want 1", got)
	}
	if got := r1.Counter("lazy_total", "h").Value(); got != 3 {
		t.Fatalf("old registry mutated after rebind: %v", got)
	}

	// Uninstall: back to no-op.
	Install(nil)
	c.Inc()
	if got := r2.Counter("lazy_total", "h").Value(); got != 1 {
		t.Fatalf("counter written after uninstall: %v", got)
	}
}

func TestNoOpCounterZeroAllocs(t *testing.T) {
	defer Install(nil)
	Install(nil)
	c := &LazyCounter{Name: "noop_total"}
	c.Inc() // warm the binding cache
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Fatalf("no-op lazy counter allocates %v per op, want 0", allocs)
	}
	h := &LazyHistogram{Name: "noop_seconds", Buckets: []float64{1}}
	h.Observe(0)
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.5) }); allocs != 0 {
		t.Fatalf("no-op lazy histogram allocates %v per op, want 0", allocs)
	}
	var nilC *Counter
	if allocs := testing.AllocsPerRun(1000, func() { nilC.Inc() }); allocs != 0 {
		t.Fatalf("nil counter allocates %v per op, want 0", allocs)
	}
}

func TestInstalledPathZeroAllocs(t *testing.T) {
	defer Install(nil)
	r := NewRegistry()
	Install(r)
	c := &LazyCounter{Name: "hot_total"}
	c.Inc()
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Fatalf("installed lazy counter allocates %v per op, want 0", allocs)
	}
	h := r.Histogram("hot_seconds", "", ExpBuckets(1e-6, 2, 20))
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(1e-4) }); allocs != 0 {
		t.Fatalf("histogram Observe allocates %v per op, want 0", allocs)
	}
}
