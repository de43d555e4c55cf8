// Package testkit is the repository's deterministic-testing subsystem:
// seeded fault injection ("chaos") for the inference backend, the serving
// layer and the simulated workload, plus reusable property checks encoding
// the paper's invariants, and differential runners that prove replay
// equality across worker counts and inference backends.
//
// Everything is driven by an explicit *rand.Rand, never the process-global
// source, so a failure sequence replays byte-identically from its seed:
// a chaos run is reproduced with
//
//	TOPIL_CHAOS_SEED=42 go test ./internal/...
//
// and every injected fault is appended to an ordered event log whose
// rendering is part of the golden contract (see EventLog).
//
// The package is test infrastructure by policy, not just by convention:
// the repository's own linter (topil-lint's testkitonly rule) rejects any
// import of internal/testkit from a non-test file outside this package,
// so chaos can never leak into production binaries.
package testkit

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
)

// SeedEnv is the environment variable consulted by SeedFromEnv, the
// seed-replay workflow documented in docs/TESTING.md.
const SeedEnv = "TOPIL_CHAOS_SEED"

// SeedFromEnv returns the chaos seed to use: the integer value of
// TOPIL_CHAOS_SEED when set and parseable, else def. Tests log the seed
// they ran with, so any failure is replayed by exporting the variable.
func SeedFromEnv(def int64) int64 {
	v := os.Getenv(SeedEnv)
	if v == "" {
		return def
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return def
	}
	return seed
}

// Event is one injected fault, recorded in injection order. Events carry
// no wall-clock time — only the deterministic sequence number and whatever
// simulated-time or call-count detail the injector provides — so the log
// of a seeded run is byte-identical across invocations and machines.
type Event struct {
	Seq    int    // injection order, starting at 0
	Source string // which injector fired ("backend", "stream", "manager", "config")
	Kind   string // fault class ("latency-spike", "infer-error", "drop", ...)
	Detail string // deterministic human-readable context
}

// String renders one event in the canonical log form.
func (e Event) String() string {
	return fmt.Sprintf("%04d %s/%s %s", e.Seq, e.Source, e.Kind, e.Detail)
}

// Chaos is a seeded fault injector. One Chaos instance owns one RNG stream
// and one event log; the Wrap* constructors hand out fault-injecting
// wrappers that all draw from it. Methods are safe for concurrent use (the
// serving layer calls backends from multiple dispatch goroutines), but the
// event order — and hence the golden log — is deterministic only when the
// wrapped components are driven from a single goroutine, as the simulation
// engine does. Concurrent tests assert on counts, not order.
type Chaos struct {
	mu     sync.Mutex
	rng    *rand.Rand
	seed   int64
	events []Event
}

// NewChaos creates a chaos injector from an explicit seed.
func NewChaos(seed int64) *Chaos {
	return &Chaos{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed the injector was created with (for failure logs).
func (c *Chaos) Seed() int64 { return c.seed }

// roll draws one uniform variate and reports whether it falls below p.
// Callers must hold c.mu. A non-positive probability consumes no
// randomness, so disabled fault classes do not shift the RNG stream of
// enabled ones.
func (c *Chaos) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return c.rng.Float64() < p
}

// record appends an event. Callers must hold c.mu.
func (c *Chaos) record(source, kind, format string, args ...interface{}) {
	c.events = append(c.events, Event{
		Seq:    len(c.events),
		Source: source,
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
	})
}

// EventCount returns the number of events of the given kind ("" = all).
func (c *Chaos) EventCount(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if kind == "" {
		return len(c.events)
	}
	n := 0
	for _, e := range c.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// EventLog renders the full event log as one newline-terminated string —
// the byte-exact artifact compared by the golden replay tests.
func (c *Chaos) EventLog() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d events=%d\n", c.seed, len(c.events))
	for _, e := range c.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
