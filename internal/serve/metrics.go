package serve

import (
	"time"

	"repro/internal/telemetry"
)

// latencyBuckets are the request-latency histogram bounds in seconds:
// exponential spacing from 50 µs to ~26 s covers both the sub-millisecond
// inference path and multi-second simulation jobs with bounded memory.
var latencyBuckets = telemetry.ExpBuckets(50e-6, 2, 20)

// ms converts a duration to fractional milliseconds for JSON snapshots.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Metrics tracks request statistics per endpoint pattern in two telemetry
// families, read through GET /metrics:
//
//	http_requests_total{route,class}
//	http_request_duration_seconds{route}
type Metrics struct {
	requests *telemetry.CounterVec
	latency  *telemetry.HistogramVec
}

// NewMetrics creates the request metrics over the given registry. A nil
// registry gets a private one.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Metrics{
		requests: reg.CounterVec("http_requests_total",
			"served requests by route and status class", "route", "class"),
		latency: reg.HistogramVec("http_request_duration_seconds",
			"request latency by route", latencyBuckets, "route"),
	}
}

// statusClass buckets an HTTP status into its class label.
func statusClass(status int) string {
	switch status / 100 {
	case 1:
		return "1xx"
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	case 5:
		return "5xx"
	default:
		return "other"
	}
}

// Record registers one served request.
func (m *Metrics) Record(pattern string, status int, d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.requests.With(pattern, statusClass(status)).Inc()
	m.latency.With(pattern).Observe(d.Seconds())
}
