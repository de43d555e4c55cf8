// Package daemon is a fixture production package: it exercises every
// telemetrycheck violation class plus the sanctioned patterns.
package daemon

import (
	"expvar" // want "expvar bypasses the telemetry registry"
	"time"

	"repro/internal/analysis/testdata/src/telemetrycheck/internal/telemetry"
)

// hits demonstrates why expvar is banned: a second, unscraped registry.
var hits = expvar.NewInt("daemon_hits")

// Observe feeds wall-clock timestamps straight into telemetry calls — the
// package's time base must come from an injected Clock instead.
func Observe(tr *telemetry.Tracer, h *telemetry.Histogram, start time.Time) {
	tr.StartAt("req", float64(time.Now().UnixNano())/1e9) // want "time.Now fed into a telemetry call"
	h.Observe(time.Since(start).Seconds())                // want "time.Since fed into a telemetry call"
}

// Register exercises the metric-name check on every constructor form.
func Register(r *telemetry.Registry) {
	r.Counter("daemon-requests", "bad: dashes")  // want "does not match the Prometheus charset"
	r.Counter("2nd_total", "bad: leading digit") // want "does not match the Prometheus charset"
	r.Counter("daemon_requests_total", "fine")
	r.Histogram("daemon:latency_seconds", "fine (colons allowed)", nil)
}

// ScrapeTime shows the FuncLit exemption: a GaugeFunc closure runs in the
// collector's wall-time context at scrape time, so a clock read inside it
// is legitimate and must not be flagged.
func ScrapeTime(r *telemetry.Registry, start time.Time) {
	r.GaugeFunc("daemon_uptime_seconds", "ok", func() float64 {
		return time.Since(start).Seconds()
	})
}

// Injected is the sanctioned pattern: the clock arrives as a dependency.
func Injected(r *telemetry.Registry, clock telemetry.Clock) *telemetry.Tracer {
	tr := telemetry.NewTracer(clock)
	tr.StartAt("boot", clock.Now())
	return tr
}
