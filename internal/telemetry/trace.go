package telemetry

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Clock supplies timestamps for tracing, in seconds. Deterministic
// packages inject their simulated clock (the sim engine's integer tick
// clock), making span trees byte-identical across runs and worker counts;
// servers inject a wall clock via NewWallClock. The zero timestamp is the
// start of the run (sim time zero, or wall-clock epoch capture).
type Clock interface {
	// Now returns the current time in seconds from the clock's origin.
	Now() float64
}

// ClockFunc adapts a plain function to the Clock interface.
type ClockFunc func() float64

// Now implements Clock.
func (f ClockFunc) Now() float64 { return f() }

// NewWallClock returns a Clock reading the process monotonic clock,
// relative to the moment of this call. For servers and other
// non-deterministic callers only — deterministic packages must inject
// their simulated clock instead (enforced by the detrand and
// telemetrycheck lint rules).
func NewWallClock() Clock {
	start := time.Now()
	return ClockFunc(func() float64 { return time.Since(start).Seconds() })
}

// Span is one traced interval: a name, a start time and — once End or
// EndAt is called — a duration. Spans nest by time containment when
// rendered; there is no explicit parent pointer, keeping Start/End safe
// to call from the single goroutine that owns a simulation while other
// goroutines trace their own cells.
//
// A nil *Span is a valid no-op.
type Span struct {
	tr    *Tracer
	name  string
	start float64
	end   float64
	open  bool
}

// Tracer records spans and instant events against an injected Clock.
// Create tracers with NewTracer; a nil *Tracer is a valid no-op, which is
// how deterministic packages trace unconditionally at zero cost when
// tracing is off.
//
// MaxSpans bounds memory in long-lived processes: once reached, the
// oldest recorded spans are dropped ring-buffer style (dropped count is
// retained). Zero means unbounded, the right setting for bounded
// experiment runs.
type Tracer struct {
	mu       sync.Mutex
	clock    Clock
	spans    []Span
	maxSpans int
	dropped  uint64
}

// NewTracer creates a tracer over the given clock. A nil clock counts
// every event at time zero (still structurally useful in tests).
func NewTracer(clock Clock) *Tracer {
	return &Tracer{clock: clock}
}

// SetClock replaces the tracer's clock — the sim engine installs its
// tick clock here so a tracer created before the engine exists records
// sim time. Nil tracers do nothing.
func (t *Tracer) SetClock(c Clock) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = c
	t.mu.Unlock()
}

// SetMaxSpans bounds the span buffer (0 = unbounded). Nil tracers do
// nothing.
func (t *Tracer) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.maxSpans = n
	t.mu.Unlock()
}

// now reads the clock under the tracer lock.
func (t *Tracer) now() float64 {
	if t.clock == nil {
		return 0
	}
	return t.clock.Now()
}

// Start opens a span. The returned handle must be closed with End or
// EndAt by the same goroutine (or a goroutine ordered after it). Nil
// tracers return a nil, no-op span.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Span{tr: t, name: name, start: t.now(), open: true}
}

// StartAt opens a span at an explicit timestamp (seconds), for callers
// that know event times more precisely than the clock granularity. Nil
// tracers return a nil, no-op span.
func (t *Tracer) StartAt(name string, at float64) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, start: at, open: true}
}

// End closes the span at the tracer clock's current time and records it.
// Closing twice, or closing a nil span, does nothing.
func (s *Span) End() {
	if s == nil || !s.open {
		return
	}
	s.tr.mu.Lock()
	s.endLocked(s.tr.now())
	s.tr.mu.Unlock()
}

// EndAt closes the span at an explicit timestamp (seconds) and records
// it. Timestamps earlier than the start are clamped to the start. Closing
// twice, or closing a nil span, does nothing.
func (s *Span) EndAt(at float64) {
	if s == nil || !s.open {
		return
	}
	s.tr.mu.Lock()
	s.endLocked(at)
	s.tr.mu.Unlock()
}

// endLocked records the finished span; caller holds s.tr.mu.
func (s *Span) endLocked(at float64) {
	s.open = false
	if at < s.start {
		at = s.start
	}
	s.end = at
	t := s.tr
	if t.maxSpans > 0 && len(t.spans) >= t.maxSpans {
		copy(t.spans, t.spans[1:])
		t.spans = t.spans[:len(t.spans)-1]
		t.dropped++
	}
	t.spans = append(t.spans, *s)
}

// InstantAt records a zero-duration marker event (a migration, a DTM
// trip) at an explicit timestamp (seconds). Nil tracers do nothing.
func (t *Tracer) InstantAt(name string, at float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Span{tr: t, name: name, start: at}
	s.endLocked(at)
}

// SpanRecord is a finished span as returned by Spans.
type SpanRecord struct {
	Name  string
	Start float64 // s, clock origin
	Dur   float64 // s; zero for instants
}

// Spans returns the recorded spans in completion order, plus the number
// dropped to the MaxSpans bound. Nil tracers return nothing.
func (t *Tracer) Spans() ([]SpanRecord, uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	for i, s := range t.spans {
		out[i] = SpanRecord{Name: s.name, Start: s.start, Dur: s.end - s.start}
	}
	return out, t.dropped
}

// TraceSet is a collection of named tracers — one per experiment cell —
// serialized together as a single Chrome trace file with one "process"
// per tracer. Tracer creation is concurrent-safe; output ordering is by
// name, independent of creation order, so a matrix run produces the same
// bytes at any worker count.
//
// A nil *TraceSet hands out nil tracers, keeping the whole pipeline
// no-op when tracing is off.
type TraceSet struct {
	mu      sync.Mutex
	tracers map[string]*Tracer
}

// NewTraceSet creates an empty trace set.
func NewTraceSet() *TraceSet {
	return &TraceSet{tracers: make(map[string]*Tracer)}
}

// Tracer returns (creating on first use) the named tracer. Nil sets
// return a nil, no-op tracer.
func (ts *TraceSet) Tracer(name string) *Tracer {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.tracers[name]
	if t == nil {
		t = NewTracer(nil)
		ts.tracers[name] = t
	}
	return t
}

// Names returns the tracer names in sorted order. Nil sets return nil.
func (ts *TraceSet) Names() []string {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	names := make([]string, 0, len(ts.tracers))
	for n := range ts.tracers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteChrome writes every tracer as a Chrome trace-event JSON array
// loadable in chrome://tracing or https://ui.perfetto.dev. Tracers become
// processes (pid = rank in sorted name order, labelled by a process_name
// metadata event); spans become complete ("X") events and zero-duration
// spans instant ("i") events; timestamps are microseconds.
//
// The output is rendered with deterministic manual formatting — sorted
// tracer names, fixed field order, strconv float formatting — so two runs
// recording identical spans produce identical bytes regardless of map
// iteration or goroutine scheduling. Nil sets write an empty trace.
func (ts *TraceSet) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	first := true
	for rank, name := range ts.Names() {
		pid := rank + 1
		writeChromeEvent(bw, &first,
			`{"name":"process_name","ph":"M","pid":`+strconv.Itoa(pid)+
				`,"tid":0,"args":{"name":`+quoteJSON(name)+`}}`)
		ts.mu.Lock()
		tr := ts.tracers[name]
		ts.mu.Unlock()
		spans, _ := tr.Spans()
		for _, s := range spans {
			at := formatMicros(s.Start)
			if s.Dur <= 0 {
				writeChromeEvent(bw, &first,
					`{"name":`+quoteJSON(s.Name)+`,"ph":"i","s":"t","pid":`+
						strconv.Itoa(pid)+`,"tid":1,"ts":`+at+`}`)
				continue
			}
			writeChromeEvent(bw, &first,
				`{"name":`+quoteJSON(s.Name)+`,"ph":"X","pid":`+strconv.Itoa(pid)+
					`,"tid":1,"ts":`+at+`,"dur":`+formatMicros(s.Dur)+`}`)
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// writeChromeEvent appends one pre-rendered event object, comma-separating
// after the first.
func writeChromeEvent(bw *bufio.Writer, first *bool, ev string) {
	if !*first {
		bw.WriteString(",\n")
	}
	*first = false
	bw.WriteString("  ")
	bw.WriteString(ev)
}

// formatMicros renders a timestamp in seconds as microseconds with at
// most three decimal places, trimming trailing zeros for compactness and
// byte-stability.
func formatMicros(sec float64) string {
	s := strconv.FormatFloat(sec*1e6, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimSuffix(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// quoteJSON renders a string as a JSON literal without reflection.
func quoteJSON(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		case '\r':
			sb.WriteString(`\r`)
		default:
			if r < 0x20 {
				sb.WriteString(`\u00`)
				const hex = "0123456789abcdef"
				sb.WriteByte(hex[r>>4])
				sb.WriteByte(hex[r&0xf])
			} else {
				sb.WriteRune(r)
			}
		}
	}
	sb.WriteByte('"')
	return sb.String()
}
