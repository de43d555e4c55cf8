package conformance

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Report is the outcome of one conformance run. Every field is derived
// from deterministic inputs (seeded simulations, ordered reductions) — no
// timestamps or wall-clock durations — so the rendered report is
// byte-identical across runs and worker counts.
type Report struct {
	Packages []PackageReport `json:"packages"`
	Pass     bool            `json:"pass"`
}

// PackageReport is one package's outcome.
type PackageReport struct {
	Name      string           `json:"name"`
	Scenarios []ScenarioReport `json:"scenarios"`
	Pass      bool             `json:"pass"`
}

// ScenarioReport is one scenario's outcome: the measured cells and the
// envelope verdicts over them.
type ScenarioReport struct {
	Name   string          `json:"name"`
	Cells  []CellReport    `json:"cells"`
	Checks []EnvelopeCheck `json:"checks"`
	Pass   bool            `json:"pass"`
}

// CellReport is one (technique, backend) simulation cell's metrics.
type CellReport struct {
	Technique string `json:"technique"`
	// Backend is "-" for techniques without an inference step.
	Backend string `json:"backend"`
	// Metrics maps MetricNames to measured values (encoding/json sorts
	// map keys, keeping the JSON form deterministic).
	Metrics map[string]float64 `json:"metrics"`
}

// EnvelopeCheck is one envelope applied to one matching cell.
type EnvelopeCheck struct {
	Metric    string  `json:"metric"`
	Technique string  `json:"technique"`
	Backend   string  `json:"backend"`
	Value     float64 `json:"value"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	Boundary  string  `json:"boundary"`
	OK        bool    `json:"ok"`
}

// JSON renders the report as indented JSON (the -json form).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render prints the deterministic text report. Failures name the package,
// scenario and metric so a red run reads without opening the manifest.
func (r *Report) Render() string {
	var b strings.Builder
	for pi := range r.Packages {
		p := &r.Packages[pi]
		fmt.Fprintf(&b, "package %s: %s\n", p.Name, passStr(p.Pass))
		for si := range p.Scenarios {
			s := &p.Scenarios[si]
			fmt.Fprintf(&b, "  scenario %s: %s\n", s.Name, passStr(s.Pass))
			for _, c := range s.Cells {
				fmt.Fprintf(&b, "    cell %s[%s]:", c.Technique, c.Backend)
				for _, m := range MetricNames() {
					fmt.Fprintf(&b, " %s=%.6g", m, c.Metrics[m])
				}
				b.WriteString("\n")
			}
			for _, c := range s.Checks {
				verdict := "ok"
				if !c.OK {
					verdict = fmt.Sprintf("FAIL (boundary: %s)", c.Boundary)
				}
				fmt.Fprintf(&b, "    envelope %s/%s: %s %s[%s] = %.6g, band [%g, %g] %s\n",
					p.Name, s.Name, c.Metric, c.Technique, c.Backend,
					c.Value, c.Min, c.Max, verdict)
			}
		}
	}
	fmt.Fprintf(&b, "conformance: %s (%d package(s))\n", passStr(r.Pass), len(r.Packages))
	return b.String()
}

func passStr(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
