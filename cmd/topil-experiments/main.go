// Command topil-experiments reproduces every figure of the paper's
// evaluation and prints the same rows/series the paper reports. Use -quick
// for a fast smoke run, -fig to select individual experiments, -out to
// write the text report, -csvdir to additionally export each experiment's
// data as CSV, -artifacts to cache the expensive design-time artifacts
// across invocations, -j to run each experiment's (technique × seed ×
// scenario) cells on a parallel worker pool — reports and CSV files are
// byte-identical at any -j value — and -trace to write a Chrome-loadable
// (chrome://tracing, Perfetto) span file of every simulation run in
// sim-time, likewise byte-identical at any -j value.
//
// Experiments: fig1 (motivational), fig3 (NAS), fig5 (migration overhead),
// fig7 (IL vs RL illustrative), fig8a/fig8b (main, fan / no fan, fig8b also
// prints Fig. 10), fig11 (single unseen apps), fig12 (run-time overhead),
// modeleval (model in isolation), energy (extension), ablations.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// csvFile is one CSV artifact an experiment can emit.
type csvFile struct {
	name  string
	write func(io.Writer) error
}

// renderer is one experiment entry: name and a function producing a report
// plus optional CSV artifacts.
type renderer struct {
	name string
	run  func(p *experiments.Pipeline) (string, []csvFile, error)
}

func allExperiments() []renderer {
	return []renderer{
		{"fig1", func(p *experiments.Pipeline) (string, []csvFile, error) {
			r, err := p.Fig1Motivational()
			if err != nil {
				return "", nil, err
			}
			return r.Render(), []csvFile{{"fig1.csv", r.WriteCSV}}, nil
		}},
		{"fig3", func(p *experiments.Pipeline) (string, []csvFile, error) {
			r, err := p.Fig3GridSearch()
			if err != nil {
				return "", nil, err
			}
			return r.Render(), nil, nil
		}},
		{"fig5", func(p *experiments.Pipeline) (string, []csvFile, error) {
			r, err := p.Fig5MigrationOverhead()
			if err != nil {
				return "", nil, err
			}
			return r.Render(), []csvFile{{"fig5.csv", r.WriteCSV}}, nil
		}},
		{"fig7", func(p *experiments.Pipeline) (string, []csvFile, error) {
			r, err := p.Fig7Illustrative()
			if err != nil {
				return "", nil, err
			}
			return r.Render(), []csvFile{{"fig7.csv", r.WriteCSV}}, nil
		}},
		{"fig8a", func(p *experiments.Pipeline) (string, []csvFile, error) {
			r, err := p.Fig8Main(true)
			if err != nil {
				return "", nil, err
			}
			return r.Render(), []csvFile{{"fig8a.csv", r.WriteCSV}}, nil
		}},
		{"fig8b", func(p *experiments.Pipeline) (string, []csvFile, error) {
			r, err := p.Fig8Main(false)
			if err != nil {
				return "", nil, err
			}
			return r.Render() + "\n" + r.RenderFig10(), []csvFile{
				{"fig8b.csv", r.WriteCSV},
				{"fig10.csv", r.WriteFig10CSV},
			}, nil
		}},
		{"fig11", func(p *experiments.Pipeline) (string, []csvFile, error) {
			r, err := p.Fig11SingleApp()
			if err != nil {
				return "", nil, err
			}
			return r.Render(), []csvFile{{"fig11.csv", r.WriteCSV}}, nil
		}},
		{"fig12", func(p *experiments.Pipeline) (string, []csvFile, error) {
			r, err := p.Fig12Overhead()
			if err != nil {
				return "", nil, err
			}
			return r.Render(), []csvFile{{"fig12.csv", r.WriteCSV}}, nil
		}},
		{"modeleval", func(p *experiments.Pipeline) (string, []csvFile, error) {
			r, err := p.ModelEvaluation()
			if err != nil {
				return "", nil, err
			}
			return r.Render(), nil, nil
		}},
		{"energy", func(p *experiments.Pipeline) (string, []csvFile, error) {
			r, err := p.EnergyAnalysis()
			if err != nil {
				return "", nil, err
			}
			return r.Render(), []csvFile{{"energy.csv", r.WriteCSV}}, nil
		}},
		{"ablations", func(p *experiments.Pipeline) (string, []csvFile, error) {
			rs, err := p.DatasetAblations()
			if err != nil {
				return "", nil, err
			}
			dvfs, err := p.AblationDVFSStep()
			if err != nil {
				return "", nil, err
			}
			var b strings.Builder
			for _, r := range append(rs, dvfs) {
				b.WriteString(r.Render() + "\n")
			}
			return b.String(), nil, nil
		}},
	}
}

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

	selected := map[string]bool{}
	if *figs != "" {
		for _, f := range strings.Split(*figs, ",") {
			selected[strings.TrimSpace(f)] = true
		}
	}

	var report strings.Builder
	report.WriteString(fmt.Sprintf("TOP-IL experiment reproduction (%s scale)\n\n", scale.Name))
	for _, exp := range allExperiments() {
		if len(selected) > 0 && !selected[exp.name] {
			continue
		}
		start := time.Now()
		log.Printf("running %s ...", exp.name)
		out, csvs, err := exp.run(p)
		if err != nil {
			log.Fatalf("%s: %v", exp.name, err)
		}
		section := fmt.Sprintf("==== %s (%.1fs) ====\n%s\n", exp.name,
			time.Since(start).Seconds(), out)
		fmt.Print(section)
		report.WriteString(section)

		if *csvDir != "" {
			for _, c := range csvs {
				path := filepath.Join(*csvDir, c.name)
				f, err := os.Create(path)
				if err != nil {
					log.Fatal(err)
				}
				if err := c.write(f); err != nil {
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
