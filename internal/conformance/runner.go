package conformance

import (
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cell is one (package, scenario, technique, backend) simulation to run.
type cell struct {
	pkg, scenario      int // indexes into the package/scenario lists
	technique, backend string
	sc                 Scenario // scenario with defaults applied
}

// Run executes the packages' scenarios on the pipeline's run matrix and,
// when api is non-nil, the requested wire-contract checks against the
// configured serve instance, and reduces everything into one Report.
//
// Determinism: cells are enumerated in manifest order, dispatched via
// experiments.RunMatrix (ordered reduction), and every simulated metric is
// seeded — so the report bytes are identical at any Pipeline.Workers
// setting. With api == nil, requested API checks are reported as skipped
// (offline run), which keeps the offline report deterministic too.
func Run(ctx context.Context, p *experiments.Pipeline, pkgs []*Package, api *APIConfig) (*Report, error) {
	var cells []cell
	needIL, needRL := false, false
	for pi, pkg := range pkgs {
		for si, sc := range pkg.Manifest.Scenarios {
			sc = sc.withDefaults()
			for _, tech := range sc.Techniques {
				switch tech {
				case "TOP-IL":
					needIL = true
				case "TOP-RL":
					needRL = true
				}
				for _, backend := range cellBackends(tech, sc.Backends) {
					cells = append(cells, cell{pkg: pi, scenario: si,
						technique: tech, backend: backend, sc: sc})
				}
			}
		}
	}

	// Warm only the artifacts the cells actually use: governor-only
	// packages stay runnable in milliseconds, without training a model.
	if needIL {
		if _, err := p.Models(); err != nil {
			return nil, err
		}
	}
	if needRL {
		if _, err := p.QTables(); err != nil {
			return nil, err
		}
	}

	specs := make([]experiments.RunSpec[map[string]float64], len(cells))
	for i, c := range cells {
		c := c
		tag := fmt.Sprintf("%s/%s/%s[%s]", pkgs[c.pkg].Manifest.Name,
			c.sc.Name, c.technique, c.backend)
		specs[i] = experiments.RunSpec[map[string]float64]{
			Tag: tag,
			Run: func() (map[string]float64, error) { return runCell(p, c) },
		}
	}
	results, err := experiments.RunMatrix(p, "conformance", specs)
	if err != nil {
		return nil, err
	}

	report := &Report{Pass: true}
	for pi, pkg := range pkgs {
		pr := PackageReport{Name: pkg.Manifest.Name, Pass: true}
		for si, sc := range pkg.Manifest.Scenarios {
			sr := ScenarioReport{Name: sc.Name, Pass: true}
			for ci, c := range cells {
				if c.pkg != pi || c.scenario != si {
					continue
				}
				sr.Cells = append(sr.Cells, CellReport{Technique: c.technique,
					Backend: c.backend, Metrics: results[ci].Value})
			}
			for _, env := range sc.Envelopes {
				checks := applyEnvelope(env, sr.Cells)
				if len(checks) == 0 {
					// Validation guarantees the technique runs; an empty
					// match still means the envelope pins nothing — fail
					// loudly rather than reporting a vacuous pass.
					checks = []EnvelopeCheck{{Metric: env.Metric,
						Technique: env.Technique, Backend: envBackend(env),
						Min: env.Min, Max: env.Max, Boundary: env.Boundary}}
				}
				for _, c := range checks {
					if !c.OK {
						sr.Pass = false
					}
					sr.Checks = append(sr.Checks, c)
				}
			}
			if !sr.Pass {
				pr.Pass = false
			}
			pr.Scenarios = append(pr.Scenarios, sr)
		}
		if len(pkg.Manifest.APIChecks) > 0 {
			pr.API = runPackageAPI(ctx, api, pkg.Manifest.APIChecks)
			for _, a := range pr.API {
				if !a.OK {
					pr.Pass = false
				}
			}
		}
		if !pr.Pass {
			report.Pass = false
		}
		report.Packages = append(report.Packages, pr)
	}
	return report, nil
}

// cellBackends resolves the backends one technique runs on: only TOP-IL
// has an inference step; everything else runs once as "-".
func cellBackends(technique string, backends []string) []string {
	if technique == "TOP-IL" {
		return backends
	}
	return []string{"-"}
}

// runCell executes one simulation cell and reduces it to the metric map.
func runCell(p *experiments.Pipeline, c cell) (map[string]float64, error) {
	mgr, err := p.ManagerOn(c.technique, 0, c.backend)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig(c.sc.fan(), c.sc.AmbientC)
	cfg.Seed = c.sc.Seed
	e := sim.New(cfg)
	var jobs []workload.Job
	if len(c.sc.Jobs) > 0 {
		jobs, err = workload.EntriesToJobs(c.sc.Jobs)
		if err != nil {
			return nil, err
		}
	} else {
		gen := workload.NewGenerator(c.sc.Seed, workload.MixedPool(), p.PeakIPS,
			0.2, 0.7, c.sc.InstrScale)
		jobs = gen.Generate(c.sc.NumJobs, c.sc.Rate)
	}
	e.AddJobs(jobs)
	r := e.RunUntil(mgr, c.sc.DurationSec, e.Done)
	return metricsOf(r), nil
}

// metricsOf reduces a sim result to the envelope metric map (see
// metricDoc for units).
func metricsOf(r *sim.Result) map[string]float64 {
	return map[string]float64{
		"peakTempC":     r.PeakTemp,
		"avgTempC":      r.AvgTemp,
		"qosViolations": float64(r.Violations),
		"energyJ":       r.TotalEnergyJ(),
		"migrations":    float64(r.Migrations),
		"throttleSec":   r.ThrottleSeconds,
	}
}

// applyEnvelope checks one envelope against every matching cell.
func applyEnvelope(env Envelope, cells []CellReport) []EnvelopeCheck {
	var out []EnvelopeCheck
	for _, c := range cells {
		if c.Technique != env.Technique {
			continue
		}
		if b := envBackend(env); b != "*" && b != c.Backend {
			continue
		}
		v := c.Metrics[env.Metric]
		out = append(out, EnvelopeCheck{Metric: env.Metric,
			Technique: env.Technique, Backend: c.Backend,
			Value: v, Min: env.Min, Max: env.Max, Boundary: env.Boundary,
			OK: v >= env.Min && v <= env.Max})
	}
	return out
}

// envBackend resolves an envelope's backend selector ("" means "*").
func envBackend(env Envelope) string {
	if env.Backend == "" {
		return "*"
	}
	return env.Backend
}

// runPackageAPI resolves one package's requested checks. A nil config
// (offline run) reports every requested check as skipped, keeping the
// report deterministic without a server.
func runPackageAPI(ctx context.Context, api *APIConfig, names []string) []APIResult {
	if api == nil {
		out := make([]APIResult, len(names))
		for i, n := range names {
			out[i] = APIResult{Check: n, OK: true, Skipped: true,
				Detail: "offline run (no serve instance configured)"}
		}
		return out
	}
	return RunAPIChecks(ctx, *api, names)
}
