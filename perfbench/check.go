package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
)

// benchFile is the schema of BENCHMARK.json.
type benchFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []e2eJSON      `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one benchmark run measures.
const runSeconds = 20

// specFile renders the metric table as BENCHMARK.json.
func specFile() benchFile {
	f := benchFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if w.dropped == "" {
			f.Workloads = append(f.Workloads, workloadJSON{w.name, w.why})
		}
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, e2eJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range reported("") {
		f.PerLayer = append(f.PerLayer, layerJSON{m.name, m.unit, m.better})
	}
	return f
}

// reported returns the per-layer metrics a traced run of workload wl
// prints: those some benchmarked workload measures, plus wl's own when wl
// is a dropped workload run on request.
func reported(wl string) []metricSpec {
	gated := map[string]bool{}
	for _, w := range workloads {
		gated[w.name] = w.dropped == ""
	}
	var out []metricSpec
	for _, m := range perLayer {
		keep := false
		for _, w := range m.on {
			keep = keep || gated[w] || w == wl
		}
		if keep {
			out = append(out, m)
		}
	}
	return out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// hostInfo is perfbench/host.json: the machine the committed figures were
// taken on.
type hostInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// checkFiles validates BENCHMARK.json and the host metadata file, and
// returns every problem found.
func checkFiles(benchPath, hostPath string) []error {
	var errs []error
	bad := func(format string, args ...interface{}) { errs = append(errs, fmt.Errorf(format, args...)) }

	errs = append(errs, checkSpec()...)

	data, err := os.ReadFile(benchPath)
	if err != nil {
		return append(errs, err)
	}
	var got benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		return append(errs, fmt.Errorf("%s: %w", benchPath, err))
	}
	if want := specFile(); !reflect.DeepEqual(got, want) {
		bad("%s differs from the metric table; regenerate it with -emit", benchPath)
	}

	data, err = os.ReadFile(hostPath)
	if err != nil {
		return append(errs, err)
	}
	var h hostInfo
	dec = json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return append(errs, fmt.Errorf("%s: %w", hostPath, err))
	}
	if h.Nproc <= 0 || h.GOMAXPROCS <= 0 || h.GoVersion == "" || h.CPUModel == "" || h.Commit == "" {
		bad("%s: nproc, gomaxprocs, go_version, cpu_model and commit are all required", hostPath)
	}
	return errs
}

func oneLine(s string) bool { return len(s) <= 200 && !strings.Contains(s, "\n") }

// checkSpec validates the metric table itself: names and units use the
// allowed characters and are unique, every metric has a direction, every
// workload has a one-line reason (and a dropped one a one-line reason for
// dropping it), every end-to-end metric has a bound, and
// every per-layer metric names an end-to-end metric it should move and
// the workloads it is measured on.
func checkSpec() []error {
	var errs []error
	bad := func(format string, args ...interface{}) { errs = append(errs, fmt.Errorf(format, args...)) }
	seen := map[string]bool{}
	isWorkload := map[string]bool{}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			bad("workload %q: bad or duplicate name", w.name)
		}
		seen[w.name] = true
		isWorkload[w.name] = true
		if w.why == "" || !oneLine(w.why) || !oneLine(w.dropped) {
			bad("workload %s: its reasons must be one line of at most 200 characters", w.name)
		}
	}
	isE2E := map[string]bool{}
	metric := func(m metricSpec) {
		if !nameRE.MatchString(m.name) || seen[m.name] {
			bad("metric %q: bad or duplicate name", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) {
			bad("metric %s: bad unit %q", m.name, m.unit)
		}
		if m.better != lower && m.better != higher {
			bad("metric %s: direction %q is neither lower nor higher", m.name, m.better)
		}
	}
	for _, m := range endToEnd {
		metric(m)
		isE2E[m.name] = true
		if m.bound <= 0 || m.bound > 0.25 {
			bad("metric %s: bound %g outside (0, 0.25]", m.name, m.bound)
		}
	}
	if !isE2E["setup_s"] {
		bad("end-to-end metrics lack setup_s")
	}
	for _, m := range perLayer {
		metric(m)
	}
	for _, m := range perLayer {
		e2e := false
		for _, t := range m.moves {
			e2e = e2e || isE2E[t]
			if !seen[t] || isWorkload[t] {
				bad("metric %s: moves unknown metric %q", m.name, t)
			}
		}
		if !e2e {
			bad("metric %s: names no end-to-end metric it should move", m.name)
		}
		if len(m.on) == 0 {
			bad("metric %s: names no workload", m.name)
		}
		for _, w := range m.on {
			if !isWorkload[w] {
				bad("metric %s: unknown workload %q", m.name, w)
			}
		}
	}
	return errs
}
