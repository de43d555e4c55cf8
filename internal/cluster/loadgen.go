package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	mrand "math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Load generation modes and arrival shapes (LoadConfig.Mode / .Shape).
const (
	ModeOpen   = "open"   // arrivals fire on schedule regardless of completions
	ModeClosed = "closed" // fixed concurrency, next request after the last returns

	ShapeConstant = "constant" // flat QPS
	ShapeBurst    = "burst"    // square wave: 3x QPS bursts over a 0.25x floor
	ShapeDiurnal  = "diurnal"  // one sinusoidal day compressed into the run
)

// LoadConfig drives RunLoad.
type LoadConfig struct {
	// URL is the target base URL (router or single replica).
	URL string
	// Model is the model name POSTed to /v1/infer.
	Model string
	// InputDim is the feature-vector width the model expects.
	InputDim int
	// Rows is the number of feature vectors per request (default 1).
	Rows int
	// QPS is the target arrival rate for open-loop mode (default 50).
	QPS float64
	// Concurrency bounds in-flight requests: the open-loop slot pool
	// (default 256) or the closed-loop worker count (default 4).
	Concurrency int
	// Duration is how long to generate load for (default 5s).
	Duration time.Duration
	// Mode is ModeOpen (default) or ModeClosed.
	Mode string
	// Shape is the arrival-rate shape for open-loop mode (default
	// ShapeConstant).
	Shape string
	// Seed drives the arrival process and request payloads (default 1).
	Seed int64
	// Telemetry receives the generator's histogram and counters (nil
	// gets a private registry; the report is built from it either way).
	Telemetry *telemetry.Registry
	// Client is the HTTP client to use (default: a fresh one with a
	// generous connection pool).
	Client *http.Client
}

// withDefaults fills unset fields.
func (c LoadConfig) withDefaults() LoadConfig {
	if c.Rows <= 0 {
		c.Rows = 1
	}
	if c.QPS <= 0 {
		c.QPS = 50
	}
	if c.Concurrency <= 0 {
		if c.Mode == ModeClosed {
			c.Concurrency = 4
		} else {
			c.Concurrency = 256
		}
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Mode == "" {
		c.Mode = ModeOpen
	}
	if c.Shape == "" {
		c.Shape = ShapeConstant
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
		}}
	}
	return c
}

// validate rejects configurations that cannot run.
func (c LoadConfig) validate() error {
	if c.URL == "" {
		return fmt.Errorf("cluster: loadgen needs a target URL")
	}
	if c.Model == "" {
		return fmt.Errorf("cluster: loadgen needs a model name")
	}
	if c.InputDim <= 0 {
		return fmt.Errorf("cluster: loadgen needs the model's input dimension")
	}
	if c.Mode != ModeOpen && c.Mode != ModeClosed {
		return fmt.Errorf("cluster: unknown mode %q", c.Mode)
	}
	switch c.Shape {
	case ShapeConstant, ShapeBurst, ShapeDiurnal:
	default:
		return fmt.Errorf("cluster: unknown shape %q", c.Shape)
	}
	return nil
}

// LatencySummary summarizes successful-request latency.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MaxMs  float64 `json:"maxMs"`
}

// LoadReport is RunLoad's machine-readable outcome (topil-loadgen prints
// it as JSON).
type LoadReport struct {
	Mode        string  `json:"mode"`
	Shape       string  `json:"shape"`
	TargetQPS   float64 `json:"targetQps"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"durationSec"`

	// Offered counts scheduled arrivals (open loop); Sent counts requests
	// actually issued; Overrun is arrivals dropped because every
	// concurrency slot was busy — the open-loop honesty metric.
	Offered int `json:"offered"`
	Sent    int `json:"sent"`
	Overrun int `json:"overrun"`

	OK         int `json:"ok"`         // 2xx
	Shed       int `json:"shed"`       // 429
	Unavail    int `json:"unavail"`    // 503
	ClientErrs int `json:"clientErrs"` // other 4xx
	ServerErrs int `json:"serverErrs"` // 5xx other than 503
	NetErrs    int `json:"netErrs"`    // transport failures

	// RetryWaits counts closed-loop sleeps honoring a Retry-After hint.
	RetryWaits int `json:"retryWaits"`

	AchievedRPS float64        `json:"achievedRps"`
	RowsPerSec  float64        `json:"rowsPerSec"`
	Latency     LatencySummary `json:"latency"`
}

// loadState is the shared bookkeeping of one RunLoad call.
type loadState struct {
	cfg    LoadConfig
	bodies [][]byte

	hist *telemetry.Histogram
	reqs *telemetry.CounterVec

	mu     sync.Mutex
	report LoadReport
}

// latencyLoadBuckets spans 100µs to ~11s with ~14% resolution — tight
// enough for a p99 on a millisecond-scale service.
var latencyLoadBuckets = telemetry.ExpBuckets(100e-6, 1.35, 40)

// RunLoad drives the target with the configured load and reports the
// outcome. It returns when the duration elapses and in-flight requests
// finish, or earlier when ctx is canceled.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return LoadReport{}, err
	}
	st := &loadState{
		cfg: cfg,
		hist: cfg.Telemetry.Histogram("loadgen_request_seconds",
			"successful request latency", latencyLoadBuckets),
		reqs: cfg.Telemetry.CounterVec("loadgen_requests_total",
			"loadgen requests by outcome class", "class"),
	}
	st.report.Mode = cfg.Mode
	st.report.Shape = cfg.Shape
	st.report.TargetQPS = cfg.QPS
	st.report.Concurrency = cfg.Concurrency
	st.makeBodies()

	start := time.Now()
	if cfg.Mode == ModeClosed {
		st.runClosed(ctx)
	} else {
		st.runOpen(ctx)
	}
	elapsed := time.Since(start).Seconds()

	st.mu.Lock()
	rep := st.report
	st.mu.Unlock()
	rep.DurationSec = elapsed
	if elapsed > 0 {
		rep.AchievedRPS = float64(rep.OK) / elapsed
		rep.RowsPerSec = float64(rep.OK*cfg.Rows) / elapsed
	}
	rep.Latency = LatencySummary{
		Count: st.hist.Count(),
		P50Ms: st.hist.Quantile(0.50) * 1e3,
		P95Ms: st.hist.Quantile(0.95) * 1e3,
		P99Ms: st.hist.Quantile(0.99) * 1e3,
		MaxMs: st.hist.Max() * 1e3,
	}
	if rep.Latency.Count > 0 {
		rep.Latency.MeanMs = st.hist.Sum() / float64(rep.Latency.Count) * 1e3
	}
	return rep, nil
}

// makeBodies pre-marshals a pool of distinct request payloads from the
// seed, so the hot loop never allocates a JSON encoder.
func (st *loadState) makeBodies() {
	rng := mrand.New(mrand.NewSource(st.cfg.Seed))
	const pool = 32
	st.bodies = make([][]byte, pool)
	for p := 0; p < pool; p++ {
		inputs := make([][]float64, st.cfg.Rows)
		for i := range inputs {
			row := make([]float64, st.cfg.InputDim)
			for j := range row {
				row[j] = rng.Float64()
			}
			inputs[i] = row
		}
		body, err := json.Marshal(map[string]interface{}{
			"model":  st.cfg.Model,
			"inputs": inputs,
		})
		if err != nil {
			// Marshaling a map of floats cannot fail; guard anyway.
			body = []byte("{}")
		}
		st.bodies[p] = body
	}
}

// shapeFactor is the rate multiplier at fraction frac of the run.
func shapeFactor(shape string, frac float64) float64 {
	switch shape {
	case ShapeBurst:
		// Four bursts per run: 3x QPS for the first half of each period,
		// a 0.25x floor for the second.
		if math.Mod(frac*8, 2) < 1 {
			return 3
		}
		return 0.25
	case ShapeDiurnal:
		// One compressed day: peak mid-run, trough at the edges.
		return 1 + 0.8*math.Sin(2*math.Pi*(frac-0.25))
	default:
		return 1
	}
}

// runOpen generates Poisson arrivals at the shaped rate. Each arrival
// takes a concurrency slot; when none is free the arrival is dropped and
// counted as overrun rather than queued — open-loop load does not slow
// down because the service did.
func (st *loadState) runOpen(ctx context.Context) {
	rng := mrand.New(mrand.NewSource(st.cfg.Seed + 1))
	slots := make(chan struct{}, st.cfg.Concurrency)
	for i := 0; i < st.cfg.Concurrency; i++ {
		slots <- struct{}{} //lint:ignore ctxflow filling a fresh buffered channel to its capacity cannot block
	}
	var wg sync.WaitGroup
	start := time.Now()
	next := time.Duration(0)
	i := 0
	for {
		frac := float64(next) / float64(st.cfg.Duration)
		if frac >= 1 || ctx.Err() != nil {
			break
		}
		if sleep := next - time.Since(start); sleep > 0 {
			select {
			case <-time.After(sleep):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		st.mu.Lock()
		st.report.Offered++
		st.mu.Unlock()
		select {
		case <-slots:
			wg.Add(1)
			body := st.bodies[i%len(st.bodies)]
			go func() {
				defer wg.Done()
				st.send(ctx, body, false)
				slots <- struct{}{}
			}()
		default:
			st.mu.Lock()
			st.report.Overrun++
			st.mu.Unlock()
		}
		i++
		rate := st.cfg.QPS * shapeFactor(st.cfg.Shape, frac)
		if rate < 0.1 {
			rate = 0.1
		}
		// Exponential inter-arrival gap: a Poisson process at the shaped
		// rate, not a metronome.
		gap := -math.Log(1-rng.Float64()) / rate
		next += time.Duration(gap * float64(time.Second))
	}
	wg.Wait()
}

// runClosed runs Concurrency workers back-to-back for the duration, each
// honoring Retry-After on 429/503 — the well-behaved client the shed
// contract assumes.
func (st *loadState) runClosed(ctx context.Context) {
	deadline := time.Now().Add(st.cfg.Duration)
	runCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < st.cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for runCtx.Err() == nil {
				st.send(runCtx, st.bodies[i%len(st.bodies)], true)
				i += st.cfg.Concurrency
			}
		}(w)
	}
	wg.Wait()
}

// send issues one request and classifies the outcome. In closed-loop
// mode (honorRetry) a 429/503 with a Retry-After header pauses this
// worker for the hinted interval.
func (st *loadState) send(ctx context.Context, body []byte, honorRetry bool) {
	st.mu.Lock()
	st.report.Sent++
	st.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		st.cfg.URL+"/v1/infer", bytes.NewReader(body))
	if err != nil {
		st.count("network", func(r *LoadReport) { r.NetErrs++ })
		return
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := st.cfg.Client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The run ended mid-request; not a service failure.
			st.mu.Lock()
			st.report.Sent--
			st.mu.Unlock()
			return
		}
		st.count("network", func(r *LoadReport) { r.NetErrs++ })
		return
	}
	elapsed := time.Since(start).Seconds()
	retryAfter := resp.Header.Get("Retry-After")
	resp.Body.Close()

	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		st.hist.Observe(elapsed)
		st.count("2xx", func(r *LoadReport) { r.OK++ })
	case resp.StatusCode == http.StatusTooManyRequests:
		st.count("429", func(r *LoadReport) { r.Shed++ })
	case resp.StatusCode == http.StatusServiceUnavailable:
		st.count("503", func(r *LoadReport) { r.Unavail++ })
	case resp.StatusCode >= 500:
		st.count("5xx", func(r *LoadReport) { r.ServerErrs++ })
	default:
		st.count("4xx", func(r *LoadReport) { r.ClientErrs++ })
	}
	if honorRetry && retryAfter != "" &&
		(resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable) {
		if sec, err := strconv.Atoi(retryAfter); err == nil && sec > 0 {
			st.mu.Lock()
			st.report.RetryWaits++
			st.mu.Unlock()
			select {
			case <-time.After(time.Duration(sec) * time.Second):
			case <-ctx.Done():
			}
		}
	}
}

// count updates one outcome class in both the report and the telemetry
// counter family.
func (st *loadState) count(class string, f func(*LoadReport)) {
	st.reqs.With(class).Inc()
	st.mu.Lock()
	f(&st.report)
	st.mu.Unlock()
}
