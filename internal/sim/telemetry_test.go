package sim

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/telemetry"
)

// TestEngineCountersMatchInternalState runs a managed workload with a
// registry attached and cross-checks every sim_* counter against the
// engine's own bookkeeping.
func TestEngineCountersMatchInternalState(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig(true, 25)
	cfg.Telemetry = reg
	e := New(cfg)
	e.AddJob(job(t, "adi", 1e8, 0, 1e9))
	e.AddJob(job(t, "canneal", 1e8, 0.1, 1e18))
	e.Run(&fixedManager{little: 8, big: 8}, 3)

	env := e.Env()
	apps := env.Apps()
	if len(apps) != 1 {
		t.Fatalf("running apps = %d, want 1 (canneal)", len(apps))
	}
	to := platform.CoreID(7)
	if apps[0].Core == to {
		to = platform.CoreID(6)
	}
	if err := env.Migrate(apps[0].ID, to); err != nil {
		t.Fatal(err)
	}
	e.Run(&fixedManager{little: 8, big: 8}, 1)

	counter := func(name string) float64 {
		t.Helper()
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, name+" ") {
				v, err := strconv.ParseFloat(line[len(name)+1:], 64)
				if err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("series %q not exported", name)
		return 0
	}

	checks := []struct {
		name string
		want float64
	}{
		{"sim_manager_ticks_total", float64(e.managerFires)},
		{"sim_sensor_samples_total", float64(e.sensorFires)},
		{"sim_dtm_decisions_total", float64(e.dtmFires)},
		{"sim_app_arrivals_total", 2},
		{"sim_app_completions_total", 1},
		{"sim_migrations_total", 1},
		{"sim_apps_running", 1},
	}
	for _, c := range checks {
		if got := counter(c.name); got != c.want {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}
	if counter("sim_dvfs_changes_total") == 0 {
		t.Error("fixedManager sets VF levels in Attach; dvfs changes must be counted")
	}
	if counter("sim_sensor_temp_celsius") < 20 {
		t.Error("sensor temperature gauge not updated")
	}
}

// TestDVFSCounterOnlyCountsChanges checks redundant SetClusterFreqIndex
// calls (the common governor pattern: re-request every tick) do not
// inflate sim_dvfs_changes_total.
func TestDVFSCounterOnlyCountsChanges(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig(true, 25)
	cfg.Telemetry = reg
	e := New(cfg)
	env := e.Env()
	env.SetClusterFreqIndex(0, 3)
	env.SetClusterFreqIndex(0, 3)  // redundant
	env.SetClusterFreqIndex(0, 99) // clamps to max, a change
	env.SetClusterFreqIndex(0, 99) // clamped and redundant

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sim_dvfs_changes_total 2") {
		t.Fatalf("want exactly 2 DVFS changes:\n%s", sb.String())
	}
}

// TestThrottleCounterTracksDTM reuses the DTM trip scenario and checks
// the telemetry counter agrees with the Result.
func TestThrottleCounterTracksDTM(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig(false, 25)
	cfg.Telemetry = reg
	e := New(cfg)
	for i := 0; i < 4; i++ {
		e.AddJob(job(t, "swaptions", 1e8, 0, 1e18))
	}
	res := e.Run(&spreadBigManager{}, 300)
	if res.ThrottleSeconds == 0 {
		t.Fatal("scenario did not trip DTM")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "sim_throttle_seconds_total") {
		t.Fatalf("throttle counter missing:\n%s", out)
	}
	var got float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "sim_throttle_seconds_total ") {
			f, err := strconv.ParseFloat(strings.TrimPrefix(line, "sim_throttle_seconds_total "), 64)
			if err != nil {
				t.Fatal(err)
			}
			got = f
		}
	}
	if diff := got - res.ThrottleSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("telemetry throttle %g != result %g", got, res.ThrottleSeconds)
	}
}

// TestSimTimeTraceDeterministic runs the same scenario twice with fresh
// tracers and demands byte-identical Chrome output: sim-time spans carry
// simulated seconds, so nothing about the host may leak in.
func TestSimTimeTraceDeterministic(t *testing.T) {
	render := func() string {
		tr := telemetry.NewTracer(nil)
		cfg := DefaultConfig(true, 25)
		cfg.Tracer = tr
		e := New(cfg)
		e.AddJob(job(t, "adi", 1e8, 0, 4e9))
		e.AddJob(job(t, "canneal", 1e8, 0.05, 1e18))
		e.Run(&fixedManager{little: 8, big: 8}, 2)

		set := telemetry.NewTraceSet()
		out := set.Tracer("sim")
		spans, _ := tr.Spans()
		for _, s := range spans {
			sp := out.StartAt(s.Name, s.Start)
			sp.EndAt(s.Start + s.Dur)
		}
		var sb strings.Builder
		if err := set.WriteChrome(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("sim-time trace differs between identical runs")
	}
	for _, want := range []string{`"run/fixed"`, `"app/adi#0"`, `"app/canneal#1"`} {
		if !strings.Contains(a, want) {
			t.Errorf("trace missing span %s:\n%s", want, a)
		}
	}
}

// TestTraceSpansCarrySimTime checks a span's bounds are simulated
// seconds: the adi app completes around 1 s of sim time regardless of
// how fast the host executed the run.
func TestTraceSpansCarrySimTime(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	cfg := DefaultConfig(true, 25)
	cfg.Tracer = tr
	e := New(cfg)
	e.AddJob(job(t, "adi", 1e8, 0, 4e9))
	e.Run(&fixedManager{little: 8, big: 8}, 10)

	spans, _ := tr.Spans()
	var app, run *telemetry.SpanRecord
	for i := range spans {
		switch spans[i].Name {
		case "app/adi#0":
			app = &spans[i]
		case "run/fixed":
			run = &spans[i]
		}
	}
	if app == nil || run == nil {
		t.Fatalf("missing spans: %+v", spans)
	}
	if app.Start != 0 {
		t.Errorf("app start = %g sim-seconds, want 0", app.Start)
	}
	// Initial placement is least-loaded (a LITTLE core): ~3 sim-seconds
	// for 4e9 instructions — far from any plausible wall-clock duration.
	if app.Dur < 0.5 || app.Dur > 8 {
		t.Errorf("app duration = %g sim-seconds, want a few", app.Dur)
	}
	if run.Dur < 9.9 || run.Dur > 10.1 {
		t.Errorf("run duration = %g sim-seconds, want 10", run.Dur)
	}
}

// TestThrottleWindowSpans checks DTM trip windows appear as spans.
func TestThrottleWindowSpans(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	cfg := DefaultConfig(false, 25)
	cfg.Tracer = tr
	e := New(cfg)
	for i := 0; i < 4; i++ {
		e.AddJob(job(t, "swaptions", 1e8, 0, 1e18))
	}
	res := e.Run(&spreadBigManager{}, 300)
	if res.ThrottleSeconds == 0 {
		t.Fatal("scenario did not trip DTM")
	}
	spans, _ := tr.Spans()
	var total float64
	for _, s := range spans {
		if s.Name == "dtm/throttle" {
			total += s.Dur
		}
	}
	if total == 0 {
		t.Fatal("no dtm/throttle spans recorded")
	}
	// Span coverage and the throttle-seconds counter measure the same
	// windows, modulo one DTM period of edge rounding per window.
	if total < res.ThrottleSeconds/2 || total > res.ThrottleSeconds*2 {
		t.Errorf("throttle span total %g vs counter %g", total, res.ThrottleSeconds)
	}
}

// TestPhaseClockFeedsPhaseHistograms injects a synthetic phase clock and
// checks per-phase timings land in sim_phase_seconds.
func TestPhaseClockFeedsPhaseHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	var fake float64
	cfg := DefaultConfig(true, 25)
	cfg.Telemetry = reg
	cfg.PhaseClock = telemetry.ClockFunc(func() float64 {
		fake += 1e-6 // each phase appears to cost 1 µs
		return fake
	})
	e := New(cfg)
	e.AddJob(job(t, "adi", 1e8, 0, 4e9))
	e.Run(&fixedManager{little: 8, big: 8}, 0.5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, phase := range []string{"execute", "thermal", "sensor", "dtm"} {
		if !strings.Contains(out, `sim_phase_seconds_count{phase="`+phase+`"}`) {
			t.Errorf("phase %q not timed:\n%s", phase, out)
		}
	}
	// Every observation is exactly 1 µs; the count sits with it in the
	// first bucket at or above 1e-6.
	if !strings.Contains(out, `sim_phase_seconds_sum{phase="execute"}`) {
		t.Error("execute phase sum missing")
	}
}

// TestNoTelemetryIsNoOp checks the default configuration (no registry,
// no tracer, no phase clock) still runs and records nothing — the
// nil-handle path.
func TestNoTelemetryIsNoOp(t *testing.T) {
	cfg := DefaultConfig(true, 25)
	e := New(cfg)
	e.AddJob(job(t, "adi", 1e8, 0, 4e9))
	res := e.Run(&fixedManager{little: 8, big: 8}, 10)
	if !res.Apps[0].Finished {
		t.Fatal("run broken without telemetry")
	}
	if e.tel != (engineMetrics{}) {
		t.Error("engine resolved metrics without a registry")
	}
	if e.trace.tracer != nil {
		t.Error("engine holds a tracer without one configured")
	}
}
