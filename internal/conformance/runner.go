// Package conformance implements the repository's packaged
// conformance-and-regression pipeline: declarative test packages — a
// versioned manifest naming scenarios (app mix, technique, backend, fan
// mode) and golden metric envelopes (peak temperature, QoS violations,
// energy within explicit tolerance bands per technique × backend) — plus a
// runner that executes packages against any policy on any backend and
// emits a deterministic pass/fail report. cmd/topil-validate drives it
// via the -packages flag; `make conformance` is the regression gate. See
// docs/CONFORMANCE.md.
package conformance

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// cell is one (package, scenario, technique, backend) simulation to run.
type cell struct {
	pkg, scenario int    // indexes into the package/scenario lists
	backend       string // report label: "-" for techniques without inference
	run           scenario.Spec
}

// Run executes the packages' scenarios on the pipeline's run matrix and
// reduces them into one Report.
//
// Determinism: cells are enumerated in manifest order, dispatched via
// experiments.RunMatrix (ordered reduction), and every simulated metric is
// seeded — so the report bytes are identical at any Pipeline.Workers
// setting. Cells fetch learned artifacts through Pipeline.Source on first
// use, so governor-only packages never train a model.
func Run(p *experiments.Pipeline, pkgs []*Package) (*Report, error) {
	var cells []cell
	for pi, pkg := range pkgs {
		for si, sc := range pkg.Manifest.Scenarios {
			for _, tech := range sc.Techniques {
				for _, backend := range cellBackends(tech, sc.backends()) {
					cells = append(cells, cell{pkg: pi, scenario: si,
						backend: backend, run: sc.run(tech, backend)})
				}
			}
		}
	}

	specs := make([]experiments.RunSpec[map[string]float64], len(cells))
	for i, c := range cells {
		c := c
		tag := fmt.Sprintf("%s/%s/%s[%s]", pkgs[c.pkg].Manifest.Name,
			pkgs[c.pkg].Manifest.Scenarios[c.scenario].Name, c.run.Policy, c.backend)
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
				sr.Cells = append(sr.Cells, CellReport{Technique: c.run.Policy,
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

// runCell executes one simulation cell until its last application
// finishes (or the duration cap) and reduces it to the metric map.
func runCell(p *experiments.Pipeline, c cell) (map[string]float64, error) {
	cfg, jobs, err := c.run.Build()
	if err != nil {
		return nil, err
	}
	mgr, err := scenario.NewManager(c.run.Policy, c.run.Backend, p.Source(0))
	if err != nil {
		return nil, err
	}
	e := sim.New(cfg)
	e.AddJobs(jobs)
	r := e.RunUntil(mgr, c.run.Duration, e.Done)
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
