package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing float64 metric. The value is held
// as IEEE-754 bits in an atomic word, updated by compare-and-swap, so
// concurrent Add calls never lose increments and never contend on a lock.
// Float (rather than integer) counters let accumulated quantities such as
// throttled seconds share the type with event counts, matching the
// Prometheus data model.
//
// A nil *Counter is a valid no-op: all methods return immediately.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one. Nil counters do nothing.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v. Negative deltas are ignored (counters
// are monotone). Nil counters do nothing.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Value returns the current total. Nil counters report zero.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 metric that can go up and down. Like Counter it is a
// single atomic word; Set is a plain store, Add a compare-and-swap loop.
//
// A nil *Gauge is a valid no-op: all methods return immediately.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value. Nil gauges do nothing.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v (which may be negative). Nil gauges do
// nothing.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Value returns the current value. Nil gauges report zero.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Unlike the serving
// layer's previous implementation — a linear bucket scan under one mutex,
// which collapsed under concurrent load — every bucket is an independent
// atomic counter and the containing bucket is found by binary search, so
// parallel Observe calls touch disjoint words and scale with cores.
//
// Bucket bounds are upper-inclusive (Prometheus `le` semantics) with an
// implicit +Inf overflow bucket at the end. Sum and Max are CAS-maintained
// float64 bit patterns. Count/Sum/bucket reads are individually atomic but
// not taken as one snapshot; a scrape concurrent with observations may see
// a histogram mid-update, which Prometheus tolerates by design.
//
// A nil *Histogram is a valid no-op: all methods return immediately.
type Histogram struct {
	bounds  []float64 // sorted ascending; counts has len(bounds)+1 (+Inf)
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	maxBits atomic.Uint64
}

// newHistogram builds a histogram over the given upper bounds, sorting a
// copy so callers can share bucket slices freely.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value. Nil histograms do nothing.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v is the containing bucket under le-semantics;
	// i == len(bounds) lands in the +Inf overflow bucket.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nu) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the total number of observations. Nil histograms report
// zero.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values. Nil histograms report zero.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Max returns the largest observed value (zero before any observation).
// Nil histograms report zero.
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket, preserving the estimator the serving
// layer's stats always used. Observations in the +Inf overflow bucket
// resolve to Max. The estimate is clamped to [0, Max]: interpolating
// towards a bucket's upper bound must not report a quantile larger than
// any observation. Returns zero when empty; nil histograms report zero.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) {
				return h.Max()
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return math.Max(0, math.Min(lo+(hi-lo)*frac, h.Max()))
		}
		cum += n
	}
	return h.Max()
}

// Buckets returns the bucket upper bounds (without the implicit +Inf) and
// the cumulative counts per bound, Prometheus `le` style. Nil histograms
// return nil slices.
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.bounds))
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	return bounds, cumulative
}
