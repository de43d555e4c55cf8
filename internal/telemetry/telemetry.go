// Package telemetry is the repository's unified observability subsystem:
// a concurrent metrics registry with Prometheus text-format exposition, a
// span tracer over an injected clock, and a guaranteed-zero-cost no-op
// path when no registry is installed.
//
// The paper's whole premise is that runtime resource management lives or
// dies by cheap, continuous introspection of the system it controls —
// temperature, IPS, and migration/DVFS decisions every 50–500 ms. This
// package gives every layer of the reproduction the same introspection
// discipline:
//
//	Registry   named metric families: atomic Counter, Gauge, GaugeFunc
//	           and fixed-bucket Histogram, each optionally labelled
//	           through the *Vec variants. Exposes the Prometheus text
//	           format (text/plain; version=0.0.4) and a JSON dump.
//	Tracer     nested spans over an injected Clock. Deterministic
//	           packages (sim, experiments) trace in *simulated* time, so
//	           span trees are byte-identical across runs and worker
//	           counts; servers trace in wall time via NewWallClock.
//	TraceSet   an ordered collection of named tracers (one per
//	           experiment cell) serialized as one chrome://tracing file.
//	Lazy*      package-level metric handles for leaf packages (npu, nn)
//	           that bind to the globally installed default registry on
//	           first use — and compile to a few branch instructions with
//	           zero allocations while no registry is installed.
//
// # Conventions
//
// Metric names follow the Prometheus data model and must match
// [a-zA-Z_:][a-zA-Z0-9_:]*; counters end in _total (or _seconds_total for
// accumulated time), base units are seconds and celsius, and label names
// are lower_snake_case. The telemetrycheck lint rule (internal/analysis)
// machine-enforces the charset and keeps wall-clock reads out of metric
// call sites — timestamps flow through an injected Clock instead. See
// docs/OBSERVABILITY.md for the full model.
//
// All registry and handle methods are safe for concurrent use, and every
// handle method is nil-receiver safe: code instruments unconditionally and
// pays nothing when observability is switched off.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// nameRunes validates one rune of a metric name against the Prometheus
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func nameRune(r rune, first bool) bool {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		return true
	case r >= '0' && r <= '9':
		return !first
	}
	return false
}

// ValidName reports whether name matches the Prometheus metric-name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		if !nameRune(r, i == 0) {
			return false
		}
	}
	return true
}

// metricKind discriminates the metric families of a Registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric family: a kind, a label schema and one child
// metric per label-value combination (a single child under the empty key
// for unlabelled metrics).
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.RWMutex
	children map[string]any // labelKey -> *Counter | *Gauge | *Histogram
	fn       func() float64 // kindGaugeFunc only
}

// Registry is a concurrent collection of named metric families. The zero
// value is not usable; create registries with NewRegistry. A nil *Registry
// is a valid no-op: every lookup returns a nil handle whose methods do
// nothing.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (registering on first use) the named family. It panics
// when the name violates the Prometheus charset or when a name is reused
// with a different kind or label schema — both are programming errors in
// instrumentation code, caught by the telemetrycheck lint rule and the
// package tests before they can reach a running service.
func (r *Registry) family(name, help string, kind metricKind, labelNames []string, buckets []float64) *family {
	if !ValidName(name) {
		panic(fmt.Sprintf("telemetry: metric name %q violates [a-zA-Z_:][a-zA-Z0-9_:]*", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name:       name,
			help:       help,
			kind:       kind,
			labelNames: append([]string(nil), labelNames...),
			buckets:    append([]float64(nil), buckets...),
			children:   make(map[string]any),
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s with %d label(s), have %s with %d",
			name, kind, len(labelNames), f.kind, len(f.labelNames)))
	}
	for i, n := range labelNames {
		if f.labelNames[i] != n {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with label %q, have %q",
				name, n, f.labelNames[i]))
		}
	}
	return f
}

// labelKey joins label values into a deterministic child key. Values are
// length-prefixed so ("a","bc") and ("ab","c") cannot collide.
func labelKey(values []string) string {
	if len(values) == 0 {
		return ""
	}
	key := ""
	for _, v := range values {
		key += fmt.Sprintf("%d:%s;", len(v), v)
	}
	return key
}

// child returns (creating on first use) the family's child metric for the
// given label values. It panics on a label-arity mismatch, which is a
// programming error at the instrumentation site.
func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q takes %d label value(s), got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.children[key]; c != nil {
		return c
	}
	c = make()
	f.children[key] = c
	return c
}

// sortedChildren returns the family's (labelKey, child) pairs sorted by
// key, plus the decoded label values per child, for stable exposition.
func (f *family) sortedChildren() []childEntry {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]childEntry, 0, len(f.children))
	for key, c := range f.children {
		out = append(out, childEntry{key: key, metric: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

type childEntry struct {
	key    string
	metric any
}

// decodeLabelKey reverses labelKey.
func decodeLabelKey(key string) []string {
	var out []string
	for len(key) > 0 {
		n := 0
		i := 0
		for ; i < len(key) && key[i] != ':'; i++ {
			n = n*10 + int(key[i]-'0')
		}
		i++ // ':'
		out = append(out, key[i:i+n])
		key = key[i+n+1:] // skip value and ';'
	}
	return out
}

// sortedFamilies returns the registry's families sorted by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// --- unlabelled lookups ---

// Counter returns (registering on first use) the named unlabelled counter.
// Nil registries return a nil, no-op handle. Panics on an invalid name or
// a kind/label conflict with an existing family (programming errors).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindCounter, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns (registering on first use) the named unlabelled gauge.
// Nil registries return a nil, no-op handle. Panics on an invalid name or
// a kind/label conflict with an existing family (programming errors).
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindGauge, nil, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — ideal for queue depths and pool occupancy that already live in
// the instrumented structure. The last registration for a name wins. Nil
// registries do nothing. Panics on an invalid name or a kind conflict with
// an existing family (programming errors).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.family(name, help, kindGaugeFunc, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram returns (registering on first use) the named unlabelled
// histogram over the given bucket upper bounds (sorted ascending; an
// implicit +Inf bucket is appended). Nil registries return a nil, no-op
// handle. Panics on an invalid name or a kind/label conflict with an
// existing family (programming errors).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindHistogram, nil, buckets)
	return f.child(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// --- labelled lookups ---

// CounterVec is a family of counters partitioned by label values.
// A nil *CounterVec is a valid no-op.
type CounterVec struct{ f *family }

// CounterVec returns (registering on first use) the named counter family
// with the given label schema. Nil registries return a nil, no-op vec.
// Panics on an invalid name or a kind/label conflict (programming errors).
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, kindCounter, labelNames, nil)}
}

// With returns the child counter for the given label values, creating it
// on first use. Nil vecs return a nil, no-op handle. Panics on a
// label-arity mismatch (a programming error).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a family of gauges partitioned by label values.
// A nil *GaugeVec is a valid no-op.
type GaugeVec struct{ f *family }

// GaugeVec returns (registering on first use) the named gauge family with
// the given label schema. Nil registries return a nil, no-op vec. Panics
// on an invalid name or a kind/label conflict (programming errors).
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, kindGauge, labelNames, nil)}
}

// With returns the child gauge for the given label values, creating it on
// first use. Nil vecs return a nil, no-op handle. Panics on a label-arity
// mismatch (a programming error).
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a family of histograms partitioned by label values.
// A nil *HistogramVec is a valid no-op.
type HistogramVec struct{ f *family }

// HistogramVec returns (registering on first use) the named histogram
// family with the given label schema and bucket bounds. Nil registries
// return a nil, no-op vec. Panics on an invalid name or a kind/label
// conflict (programming errors).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.family(name, help, kindHistogram, labelNames, buckets)}
}

// With returns the child histogram for the given label values, creating it
// on first use. Nil vecs return a nil, no-op handle. Panics on a
// label-arity mismatch (a programming error).
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// ExpBuckets returns n exponentially spaced histogram bucket bounds
// starting at start and multiplying by factor — the standard shape for
// latency distributions. It panics on a non-positive start, a factor not
// greater than one, or n < 1 (programming errors in instrumentation code).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets requires start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n linearly spaced bucket bounds starting at start
// with the given step. It panics on n < 1 or a non-positive step
// (programming errors in instrumentation code).
func LinearBuckets(start, step float64, n int) []float64 {
	if n < 1 || step <= 0 {
		panic("telemetry: LinearBuckets requires step > 0, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}
