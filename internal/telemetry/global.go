package telemetry

import (
	"sync/atomic"
)

// installed holds the process-wide default registry and a generation
// counter bumped on every Install, letting Lazy handles detect staleness
// with one atomic load.
var installed atomic.Pointer[installState]

type installState struct {
	reg *Registry
	gen uint64
}

// Install makes r the process-wide default registry that Lazy handles
// bind against. Installing nil switches all Lazy handles back to no-ops.
// Intended to be called once at process start (cmd/ main functions);
// safe, if unusual, to call again.
func Install(r *Registry) {
	prev := installed.Load()
	var gen uint64 = 1
	if prev != nil {
		gen = prev.gen + 1
	}
	installed.Store(&installState{reg: r, gen: gen})
}

// Default returns the installed default registry, or nil when none is
// installed (the no-op state).
func Default() *Registry {
	st := installed.Load()
	if st == nil {
		return nil
	}
	return st.reg
}

// lazyBind caches a resolved metric handle together with the install
// generation it was resolved under. The fast path — no registry installed,
// or an up-to-date binding — is one atomic pointer load and a comparison,
// with zero allocations, so leaf packages (npu, nn) instrument hot loops
// unconditionally.
type lazyBind[M any] struct {
	ptr atomic.Pointer[lazyBound[M]]
}

type lazyBound[M any] struct {
	gen    uint64
	metric M // nil-able handle; nil when bound to the no-registry state
}

// get returns the cached handle, re-resolving via resolve when the
// install generation moved.
func (l *lazyBind[M]) get(resolve func(r *Registry) M) M {
	st := installed.Load()
	var gen uint64
	var reg *Registry
	if st != nil {
		gen, reg = st.gen, st.reg
	}
	if b := l.ptr.Load(); b != nil && b.gen == gen {
		return b.metric
	}
	var m M
	if reg != nil {
		m = resolve(reg)
	}
	l.ptr.Store(&lazyBound[M]{gen: gen, metric: m})
	return m
}

// LazyCounter is a package-level counter handle that binds to the
// installed default registry on first use and rebinds when Install is
// called again. While no registry is installed every method is a few
// nanoseconds and zero allocations. Declare as a package var:
//
//	var inferCalls = telemetry.LazyCounter{
//		Name: "npu_infer_calls_total", Help: "device Infer invocations",
//	}
type LazyCounter struct {
	Name string
	Help string
	bind lazyBind[*Counter]
}

// Inc adds one (no-op without an installed registry).
func (l *LazyCounter) Inc() { l.counter().Inc() }

// Add increases the counter by v (no-op without an installed registry).
func (l *LazyCounter) Add(v float64) { l.counter().Add(v) }

// Value returns the bound counter's total (zero without a registry).
func (l *LazyCounter) Value() float64 { return l.counter().Value() }

func (l *LazyCounter) counter() *Counter {
	return l.bind.get(func(r *Registry) *Counter { return r.Counter(l.Name, l.Help) })
}

// LazyHistogram is the histogram analogue of LazyCounter. Buckets must be
// set before first use (or the Observe falls into a single +Inf bucket).
type LazyHistogram struct {
	Name    string
	Help    string
	Buckets []float64
	bind    lazyBind[*Histogram]
}

// Observe records one value (no-op without an installed registry).
func (l *LazyHistogram) Observe(v float64) { l.histogram().Observe(v) }

// Count returns the bound histogram's observation count (zero without a
// registry).
func (l *LazyHistogram) Count() uint64 { return l.histogram().Count() }

func (l *LazyHistogram) histogram() *Histogram {
	return l.bind.get(func(r *Registry) *Histogram { return r.Histogram(l.Name, l.Help, l.Buckets) })
}
