// Command topil-experiments reproduces every figure of the paper's
// evaluation and prints the same rows/series the paper reports. Use -quick
// for a fast smoke run, -fig to select individual experiments, -out to
// write the text report, -csvdir to additionally export each experiment's
// data as CSV, -artifacts to cache the expensive design-time artifacts
// across invocations (a failed save is an error that names the path), -j
// to run each experiment's (technique × seed × scenario) cells on a
// parallel worker pool — reports and CSV files are byte-identical at any
// -j value — and -trace to write a Chrome-loadable
// (chrome://tracing, Perfetto) span file of every simulation run in
// sim-time, likewise byte-identical at any -j value.
//
// The experiments, their report order and their CSV files are those of
// experiments.Catalogue; an unknown -fig name is an error that lists them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topil-experiments: ")

	var (
		quick     = flag.Bool("quick", false, "smoke-scale experiments")
		figs      = flag.String("fig", "", "comma-separated subset (e.g. fig1,fig8a); empty = all")
		outPath   = flag.String("out", "", "also write the report to this file")
		csvDir    = flag.String("csvdir", "", "export per-experiment CSV data into this directory")
		verbose   = flag.Bool("v", false, "print pipeline progress")
		artifacts = flag.String("artifacts", "", "cache design-time artifacts (dataset/models/Q-tables) in this directory")
		jobs      = flag.Int("j", 0, "parallel run cells per experiment (0 = GOMAXPROCS); output is identical at any value")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of all simulation runs (sim-time) to this file")
	)
	flag.Parse()

	if *jobs < 0 {
		log.Fatalf("-j %d: worker count must be >= 0", *jobs)
	}
	exps, err := selectExperiments(*figs)
	if err != nil {
		log.Fatal(err)
	}
	scale := experiments.FullScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	p := experiments.NewPipeline(scale)
	p.ArtifactsDir = *artifacts
	p.Workers = *jobs
	if *traceOut != "" {
		p.Traces = telemetry.NewTraceSet()
	}
	if *verbose {
		p.Progress = func(msg string) { log.Print(msg) }
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	var report strings.Builder
	report.WriteString(fmt.Sprintf("TOP-IL experiment reproduction (%s scale)\n\n", scale.Name))
	for _, exp := range exps {
		start := time.Now()
		log.Printf("running %s ...", exp.Name)
		out, csvs, err := exp.Run(p)
		if err != nil {
			log.Fatalf("%s: %v", exp.Name, err)
		}
		if err := p.ArtifactErr(); err != nil {
			log.Fatal(err)
		}
		section := fmt.Sprintf("==== %s (%.1fs) ====\n%s\n", exp.Name,
			time.Since(start).Seconds(), out)
		fmt.Print(section)
		report.WriteString(section)

		if *csvDir != "" {
			for _, c := range csvs {
				path := filepath.Join(*csvDir, c.Name)
				f, err := os.Create(path)
				if err != nil {
					log.Fatal(err)
				}
				if err := c.Write(f); err != nil {
					log.Fatalf("writing %s: %v", path, err)
				}
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
				log.Printf("wrote %s", path)
			}
		}
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(report.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *outPath)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := p.Traces.WriteChrome(f); err != nil {
			log.Fatalf("writing %s: %v", *traceOut, err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("trace written to %s (load in chrome://tracing or Perfetto)", *traceOut)
	}
}

// selectExperiments returns the catalogue entries named in the
// comma-separated list, in report order, or the whole catalogue for an
// empty list. An unknown name is an error that lists the valid ones.
func selectExperiments(list string) ([]experiments.Experiment, error) {
	all := experiments.Catalogue()
	if list == "" {
		return all, nil
	}
	var valid []string
	for _, e := range all {
		valid = append(valid, e.Name)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("-fig: unknown experiment %q (valid: %s)",
				name, strings.Join(valid, ", "))
		}
		want[name] = true
	}
	var selected []experiments.Experiment
	for _, e := range all {
		if want[e.Name] {
			selected = append(selected, e)
		}
	}
	return selected, nil
}
