// Package scenario holds the two decisions every managed simulation run
// shares: what a run is (Spec — the workload, cooling, ambient, seed and
// policy, with one set of defaults and range checks, built into a
// sim.Config and a job list) and which manager a policy name means
// (NewManager over a caller's Source of learned artifacts). POST /v1/sim
// decodes a Spec directly (serve.SimRequest is an alias), each conformance
// cell is a Spec copy with its policy and backend set, and cmd/topil-sim
// builds one from its flags; each caller keeps its own run loop.
package scenario

import (
	"cmp"
	"fmt"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Spec describes one simulation run: a workload (explicit job list or
// generator parameters), a management policy and run settings. A zero
// optional field selects its default (see WithDefaults).
type Spec struct {
	// Policy selects the manager by name (see Names).
	Policy string `json:"policy"`
	// Model names the serve registry model TOP-IL runs on POST /v1/sim.
	Model string `json:"model,omitempty"`
	// Backend selects TOP-IL's inference device by npu.BackendNames name:
	// "npu" (default), "cpu" (the paper's no-accelerator ablation) or
	// "fp16" (the fp16-quantized model on the NPU). Policies without an
	// inference step ignore a valid one.
	Backend string `json:"backend,omitempty"`

	// Duration is the simulated time in seconds (default 60).
	Duration float64 `json:"duration,omitempty"`
	// Seed drives workload generation and simulator noise (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Fan selects active cooling (default true, the paper's training
	// setup; false exposes DTM throttling).
	Fan *bool `json:"fan,omitempty"`
	// AmbientC is the ambient temperature in °C (default 25; nil stays
	// unset, so defaulted specs encode as before the field existed).
	AmbientC *float64 `json:"ambientC,omitempty"`

	// Jobs is an explicit workload manifest (same schema as saved job
	// lists). When empty, NumJobs/Rate/InstrScale drive the generator
	// over the mixed pool.
	Jobs []workload.JobEntry `json:"jobs,omitempty"`
	// NumJobs is the number of generated applications (default 8).
	NumJobs int `json:"numJobs,omitempty"`
	// Rate is the Poisson arrival rate in jobs/s (default 0.1).
	Rate float64 `json:"rate,omitempty"`
	// InstrScale scales application lengths (default 0.1, quick runs).
	InstrScale float64 `json:"instrScale,omitempty"`
}

// WithDefaults fills unset fields.
func (s Spec) WithDefaults() Spec {
	if s.Backend == "" {
		s.Backend = "npu"
	}
	if s.Duration == 0 {
		s.Duration = 60
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.NumJobs == 0 {
		s.NumJobs = 8
	}
	if s.Rate == 0 {
		s.Rate = 0.1
	}
	if s.InstrScale == 0 {
		s.InstrScale = 0.1
	}
	return s
}

// Validate rejects a spec that could not be run, after applying defaults,
// with the first of: an unknown policy (CheckPolicy) or backend
// (CheckBackend) name, or an out-of-range setting (ValidateSettings).
// Whether a caller can supply the learned artifacts is NewManager's check.
func (s Spec) Validate() error {
	return cmp.Or(CheckPolicy(s.Policy), CheckBackend(s.WithDefaults().Backend), s.ValidateSettings())
}

// ValidateSettings is Validate without the policy and backend names.
func (s Spec) ValidateSettings() error {
	_, err := s.WithDefaults().settings()
	return err
}

// settings checks a defaulted spec's run settings and returns its explicit
// jobs, parsed (nil when generated).
func (s Spec) settings() ([]workload.Job, error) {
	if s.Duration <= 0 || s.Duration > 24*3600 {
		return nil, fmt.Errorf("scenario: duration %g s out of range (0, 86400]", s.Duration)
	}
	if a := s.AmbientC; a != nil && (*a < -50 || *a > 100) {
		return nil, fmt.Errorf("scenario: ambientC %g implausible, want [-50, 100] °C", *a)
	}
	if len(s.Jobs) > 0 {
		jobs, err := workload.EntriesToJobs(s.Jobs)
		if err != nil {
			return nil, fmt.Errorf("scenario: jobs manifest: %w", err)
		}
		return jobs, nil
	}
	if s.NumJobs <= 0 || s.NumJobs > 1024 {
		return nil, fmt.Errorf("scenario: numJobs %d out of range [1, 1024]", s.NumJobs)
	}
	if s.Rate <= 0 {
		return nil, fmt.Errorf("scenario: non-positive arrival rate %g", s.Rate)
	}
	if s.InstrScale <= 0 {
		return nil, fmt.Errorf("scenario: non-positive instruction scale %g", s.InstrScale)
	}
	return nil, nil
}

// Build checks the defaulted spec's settings (NewManager checks the names)
// and returns its engine configuration on the HiKey970 and its job list:
// the explicit Jobs, or NumJobs seeded arrivals at Rate from the mixed
// pool, each with a QoS target drawn from [0.2, 0.7] of its peak IPS under
// the default performance model.
func (s Spec) Build() (sim.Config, []workload.Job, error) {
	s = s.WithDefaults()
	jobs, err := s.settings()
	if err != nil {
		return sim.Config{}, nil, err
	}
	ambient := 25.0
	if s.AmbientC != nil {
		ambient = *s.AmbientC
	}
	cfg := sim.DefaultConfig(s.Fan == nil || *s.Fan, ambient)
	cfg.Seed = s.Seed
	if jobs != nil {
		return cfg, jobs, nil
	}
	pm := perf.Default()
	peak := func(spec workload.AppSpec) float64 { return pm.PeakIPS(cfg.Platform, spec) }
	gen := workload.NewGenerator(s.Seed, workload.MixedPool(), peak, 0.2, 0.7, s.InstrScale)
	return cfg, gen.Generate(s.NumJobs, s.Rate), nil
}
