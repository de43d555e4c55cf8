package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// simClock is a hand-advanced test clock.
type simClock struct{ t float64 }

func (c *simClock) Now() float64 { return c.t }

func TestTracerSpansAndInstants(t *testing.T) {
	clk := &simClock{}
	tr := NewTracer(clk)
	s := tr.Start("run")
	clk.t = 1.5
	tr.InstantAt("migrate", clk.Now())
	clk.t = 2.0
	s.End()
	s.End() // double close: no-op
	tr.StartAt("window", 0.25).EndAt(0.75)
	tr.InstantAt("trip", 0.5)

	spans, dropped := tr.Spans()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(spans), spans)
	}
	want := []SpanRecord{
		{Name: "migrate", Start: 1.5, Dur: 0},
		{Name: "run", Start: 0, Dur: 2},
		{Name: "window", Start: 0.25, Dur: 0.5},
		{Name: "trip", Start: 0.5, Dur: 0},
	}
	for i, w := range want {
		if spans[i] != w {
			t.Fatalf("span[%d] = %+v, want %+v", i, spans[i], w)
		}
	}
}

func TestTracerEndAtClampsAndSetClock(t *testing.T) {
	tr := NewTracer(nil)
	tr.Start("zero").End() // nil clock: everything at t=0
	clk := &simClock{t: 3}
	tr.SetClock(clk)
	tr.Start("late").End()
	tr.StartAt("clamped", 5).EndAt(1) // end before start clamps to start
	spans, _ := tr.Spans()
	if spans[0].Start != 0 || spans[1].Start != 3 {
		t.Fatalf("SetClock not honoured: %+v", spans)
	}
	if spans[2].Dur != 0 || spans[2].Start != 5 {
		t.Fatalf("EndAt clamp wrong: %+v", spans[2])
	}
}

func TestTracerMaxSpansRing(t *testing.T) {
	tr := NewTracer(&simClock{})
	tr.SetMaxSpans(3)
	for i := 0; i < 5; i++ {
		tr.InstantAt("ev", float64(i))
	}
	spans, dropped := tr.Spans()
	if len(spans) != 3 || dropped != 2 {
		t.Fatalf("ring: %d spans, %d dropped; want 3/2", len(spans), dropped)
	}
	if spans[0].Start != 2 || spans[2].Start != 4 {
		t.Fatalf("ring kept wrong spans: %+v", spans)
	}
}

func TestNilTracerNoOp(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	s.End()
	s.EndAt(1)
	tr.StartAt("y", 0).End()
	tr.InstantAt("w", 1)
	tr.SetClock(&simClock{})
	tr.SetMaxSpans(1)
	if spans, dropped := tr.Spans(); spans != nil || dropped != 0 {
		t.Fatal("nil tracer must report nothing")
	}
	var ts *TraceSet
	if ts.Tracer("a") != nil {
		t.Fatal("nil TraceSet must hand out nil tracers")
	}
	if ts.Names() != nil {
		t.Fatal("nil TraceSet must have no names")
	}
	var sb strings.Builder
	if err := ts.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "[") {
		t.Fatal("nil TraceSet must still write a valid trace array")
	}
}

func TestTraceSetChromeOutput(t *testing.T) {
	build := func(order []string) string {
		ts := NewTraceSet()
		for _, name := range order {
			tr := ts.Tracer(name)
			tr.StartAt("run", 0).EndAt(0.01)
			tr.InstantAt("mark \"q\"", 0.005)
		}
		var sb strings.Builder
		if err := ts.WriteChrome(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a := build([]string{"fig1/s1", "fig1/s2", "fig1/s0"})
	b := build([]string{"fig1/s0", "fig1/s2", "fig1/s1"})
	if a != b {
		t.Fatalf("Chrome output depends on creation order:\n%s\n---\n%s", a, b)
	}
	// Must parse as JSON: an array of event objects.
	var events []map[string]any
	if err := json.Unmarshal([]byte(a), &events); err != nil {
		t.Fatalf("Chrome trace does not parse: %v\n%s", err, a)
	}
	// 3 process_name metadata + 3 X + 3 i events.
	if len(events) != 9 {
		t.Fatalf("got %d events, want 9:\n%s", len(events), a)
	}
	var phases []string
	pids := map[float64]bool{}
	for _, ev := range events {
		phases = append(phases, ev["ph"].(string))
		pids[ev["pid"].(float64)] = true
	}
	if len(pids) != 3 {
		t.Fatalf("want 3 distinct pids, got %v", pids)
	}
	if phases[0] != "M" {
		t.Fatalf("first event must be process_name metadata, got %v", events[0])
	}
	// X events carry microsecond durations.
	for _, ev := range events {
		if ev["ph"] == "X" {
			if ev["dur"].(float64) != 10000 { // 0.01 s = 10000 µs
				t.Fatalf("dur = %v µs, want 10000", ev["dur"])
			}
		}
	}
	// Same spans recorded from concurrent goroutines: same bytes.
	ts := NewTraceSet()
	var wg sync.WaitGroup
	for _, name := range []string{"fig1/s2", "fig1/s0", "fig1/s1"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			tr := ts.Tracer(name)
			tr.StartAt("run", 0).EndAt(0.01)
			tr.InstantAt("mark \"q\"", 0.005)
		}(name)
	}
	wg.Wait()
	var sb strings.Builder
	ts.WriteChrome(&sb)
	if sb.String() != a {
		t.Fatal("Chrome output differs when recorded concurrently")
	}
}

func TestFormatMicros(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		0.01:     "10000",
		1e-6:     "1",
		1.5e-6:   "1.5",
		0.123456: "123456",
	}
	for in, want := range cases {
		if got := formatMicros(in); got != want {
			t.Errorf("formatMicros(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestQuoteJSON(t *testing.T) {
	got := quoteJSON("a\"b\\c\nd\te\rf\x01g")
	var back string
	if err := json.Unmarshal([]byte(got), &back); err != nil {
		t.Fatalf("quoteJSON output does not parse: %v (%q)", err, got)
	}
	if back != "a\"b\\c\nd\te\rf\x01g" {
		t.Fatalf("round trip = %q", back)
	}
}

func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	b := c.Now()
	if a < 0 || b < a {
		t.Fatalf("wall clock not monotone: %v then %v", a, b)
	}
}
