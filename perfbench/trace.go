package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// recorder keeps the traced run's spans in memory and writes them out once
// the run ends. A span has a name "<layer>.<operation>", a start and an end
// on one monotonic clock, a parent, and a group: the spans of one request,
// matrix cell or pipeline pass share a group.
//
// Calls too short and too frequent to record one by one (manager ticks,
// device invocations inside a simulation) are folded: the caller times
// them itself and records one span per enclosing span carrying their total
// duration but no position on the timeline.
//
// A nil *recorder records nothing; untraced runs pass nil.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

type spanRec struct {
	group, name string
	parent      int // index of the parent span, -1 for a root
	start, end  time.Duration
	folded      bool
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its handle.
func (r *recorder) begin(group, name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{group: group, name: name, parent: parent, start: now, end: -1})
	return len(r.spans) - 1
}

// finish closes the span opened by begin.
func (r *recorder) finish(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// add records a span measured elsewhere, between two instants of the
// process's monotonic clock.
func (r *recorder) add(group, name string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{group: group, name: name, parent: parent,
		start: start.Sub(r.t0), end: end.Sub(r.t0)})
	return len(r.spans) - 1
}

// fold records the total busy time of short calls made inside parent.
func (r *recorder) fold(group, name string, parent int, busy time.Duration) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{group: group, name: name, parent: parent,
		end: busy, folded: true})
	return len(r.spans) - 1
}

func (s spanRec) dur() time.Duration {
	if s.end < s.start {
		return 0
	}
	return s.end - s.start
}

// profile is the per-name roll-up of a finished trace.
type profile struct {
	self map[string]time.Duration // durations minus time covered by children
	// rootWall sums the root spans' durations; covered is the part of it
	// that lies inside some child span.
	rootWall, covered time.Duration
}

// profile computes self times. A positioned span's self time is its
// duration minus the union of its positioned children's intervals
// (clipped to the span) minus its folded children's durations; a folded
// span's self time is its duration minus its folded children's.
func (r *recorder) profile() profile {
	p := profile{self: map[string]time.Duration{}}
	if r == nil {
		return p
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	for i, s := range r.spans {
		d := s.dur()
		var ivs [][2]time.Duration
		var folded time.Duration
		for _, k := range kids[i] {
			c := r.spans[k]
			if c.folded {
				folded += c.dur()
				continue
			}
			if s.folded {
				continue
			}
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		covered := union(ivs) + folded
		self := d - covered
		if self < 0 {
			self = 0
		}
		p.self[s.name] += self
		if s.parent < 0 {
			p.rootWall += d
			p.covered += min(covered, d)
		}
	}
	return p
}

// union returns the total length covered by a set of intervals.
func union(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeChrome writes the positioned spans as Chrome trace-event JSON, one
// trace "process" per group, through telemetry.TraceSet. Folded spans have
// no position and are left out of the file.
func (r *recorder) writeChrome(path string) error {
	if r == nil {
		return nil
	}
	ts := telemetry.NewTraceSet()
	r.mu.Lock()
	for _, s := range r.spans {
		if s.folded || s.end < s.start {
			continue
		}
		ts.Tracer(s.group).StartAt(s.name, s.start.Seconds()).EndAt(s.end.Seconds())
	}
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ts.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}
