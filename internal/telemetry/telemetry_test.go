package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestValidName(t *testing.T) {
	valid := []string{"a", "A", "_", ":", "http_requests_total", "ns:sub_total", "a1", "_9"}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	invalid := []string{"", "9a", "has-dash", "has.dot", "has space", "héllo", "a\n"}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-3) // monotone: ignored
	if got := c.Value(); got != 3.5 {
		t.Fatalf("Value = %v, want 3.5", got)
	}
	if c2 := r.Counter("test_total", "help"); c2 != c {
		t.Fatal("second lookup returned a different counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth", "help")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("Value = %v, want 2.5", got)
	}
}

func TestNilHandlesNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", []float64{1})
	r.GaugeFunc("f", "", func() float64 { return 1 })
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read as zero")
	}
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	cv.With("a").Inc()
	gv.With("a").Set(1)
	hv.With("a").Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 10} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-16.7) > 1e-12 {
		t.Fatalf("Sum = %v, want 16.7", got)
	}
	if got := h.Max(); got != 10 {
		t.Fatalf("Max = %v, want 10", got)
	}
	bounds, cum := h.Buckets()
	wantCum := []uint64{1, 3, 4}
	for i := range bounds {
		if cum[i] != wantCum[i] {
			t.Fatalf("cumulative[%d] = %d, want %d", i, cum[i], wantCum[i])
		}
	}
	// Overflow observations resolve to Max.
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("Quantile(1) = %v, want 10 (max)", got)
	}
	// Median: rank 2.5 of 5 lands in the (1,2] bucket holding obs 2..3.
	q := h.Quantile(0.5)
	if q < 1 || q > 2 {
		t.Fatalf("Quantile(0.5) = %v, want within (1,2]", q)
	}
	if got := h.Quantile(-1); got < 0 {
		t.Fatalf("Quantile clamps q, got %v", got)
	}
	// Empty histogram.
	if got := r.Histogram("empty_seconds", "", []float64{1}).Quantile(0.9); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
}

// TestHistogramQuantileProperties checks the estimator over seeded random
// bucket layouts and observations: quantiles are monotone in q and stay
// within [0, Max]. Interpolating towards a sparse bucket's upper bound
// used to report a p99 above the largest observation.
func TestHistogramQuantileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		bounds := make([]float64, 1+rng.Intn(8))
		for i := range bounds {
			bounds[i] = rng.Float64()*20 - 2 // a few negative bounds too
		}
		h := newHistogram(bounds)
		for n := 1 + rng.Intn(50); n > 0; n-- {
			h.Observe(rng.ExpFloat64() * 4)
		}
		max := h.Max()
		prev := math.Inf(-1)
		for i := 0; i <= 100; i++ {
			q := float64(i) / 100
			v := h.Quantile(q)
			if v < 0 || v > max {
				t.Fatalf("trial %d: Quantile(%v) = %v outside [0, Max=%v] (bounds %v)",
					trial, q, v, max, h.bounds)
			}
			if v < prev {
				t.Fatalf("trial %d: Quantile(%v) = %v below Quantile(%v) = %v",
					trial, q, v, float64(i-1)/100, prev)
			}
			prev = v
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "", ExpBuckets(1e-6, 2, 20))
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per+i) * 1e-7)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d (lost updates)", got, workers*per)
	}
	want := float64(workers*per) * float64(workers*per-1) / 2 * 1e-7
	if got := h.Sum(); math.Abs(got-want) > want*1e-9 {
		t.Fatalf("Sum = %v, want %v (lost updates)", got, want)
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("req_total", "help", "route", "class")
	cv.With("/a", "2xx").Add(3)
	cv.With("/a", "4xx").Inc()
	cv.With("/b", "2xx").Inc()
	if got := cv.With("/a", "2xx").Value(); got != 3 {
		t.Fatalf("labelled counter = %v, want 3", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`req_total{route="/a",class="2xx"} 3`,
		`req_total{route="/a",class="4xx"} 1`,
		`req_total{route="/b",class="2xx"} 1`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Fatalf("exposition lacks child %q:\n%s", want, sb.String())
		}
	}
	if n := strings.Count(sb.String(), "\nreq_total{"); n != 3 {
		t.Fatalf("exposition has %d req_total children, want 3:\n%s", n, sb.String())
	}
	gv := r.GaugeVec("depth", "", "pool")
	gv.With("jobs").Set(7)
	if got := gv.With("jobs").Value(); got != 7 {
		t.Fatalf("labelled gauge = %v, want 7", got)
	}
	hv := r.HistogramVec("lat_seconds", "", []float64{1, 2}, "route")
	hv.With("/a").Observe(1.5)
	if count := hv.With("/a").Count(); count != 1 {
		t.Fatalf("vec histogram count = %d, want 1", count)
	}
}

func TestLabelKeyNoCollision(t *testing.T) {
	if labelKey([]string{"a", "bc"}) == labelKey([]string{"ab", "c"}) {
		t.Fatal("label keys collide")
	}
	got := decodeLabelKey(labelKey([]string{"x", "", "y;z", "1:2"}))
	want := []string{"x", "", "y;z", "1:2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decode = %q, want %q", got, want)
		}
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "bad name", func() { r.Counter("bad-name", "") })
	r.Counter("dup", "")
	mustPanic(t, "kind conflict", func() { r.Gauge("dup", "") })
	cv := r.CounterVec("v_total", "", "a")
	mustPanic(t, "label schema conflict", func() { r.CounterVec("v_total", "", "b") })
	mustPanic(t, "label arity", func() { cv.With("x", "y") })
	mustPanic(t, "ExpBuckets misuse", func() { ExpBuckets(0, 2, 3) })
	mustPanic(t, "LinearBuckets misuse", func() { LinearBuckets(0, 0, 3) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestExpAndLinearBuckets(t *testing.T) {
	e := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", e, want)
		}
	}
	l := LinearBuckets(10, 5, 3)
	wantL := []float64{10, 15, 20}
	for i := range wantL {
		if l[i] != wantL[i] {
			t.Fatalf("LinearBuckets = %v, want %v", l, wantL)
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	depth := 0
	r.GaugeFunc("live_depth", "current depth", func() float64 { return float64(depth) })
	depth = 42
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "live_depth 42\n") {
		t.Fatalf("GaugeFunc not evaluated at scrape:\n%s", sb.String())
	}
}
