// Command topil-sim runs one managed simulation on the simulated HiKey970
// and reports the outcome: temperature, QoS violations, CPU-time breakdown
// and migrations.
//
// Techniques (experiments.TechniqueNames): TOP-IL (requires -model from
// topil-train, or trains a quick one on the fly), TOP-RL (optionally
// -qtable), and the GTS baselines GTS/ondemand, GTS/powersave,
// GTS/schedutil and GTS/performance.
//
//	topil-sim -technique TOP-IL -model artifacts/model-1.json -jobs 12 -rate 0.1
//
// -metrics dumps the run's telemetry (Prometheus text format) to a file or
// "-" for stdout; -trace writes the run's sim-time spans as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/npu"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topil-sim: ")
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "topil-sim: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		technique = flag.String("technique", "TOP-IL", strings.Join(experiments.TechniqueNames(), " | "))
		modelPath = flag.String("model", "", "trained IL model JSON (TOP-IL)")
		qtPath    = flag.String("qtable", "", "pretrained Q-table (TOP-RL)")
		jobs      = flag.Int("jobs", 12, "number of applications")
		rate      = flag.Float64("rate", 0.1, "Poisson arrival rate (jobs/s)")
		dur       = flag.Float64("duration", 300, "simulated seconds")
		fan       = flag.Bool("fan", true, "active cooling")
		seed      = flag.Int64("seed", 1, "workload seed")
		instr     = flag.Float64("instr-scale", 0.1, "application length scaling")
		csvPath   = flag.String("csv", "", "write a 500 ms time-series CSV (temp, freqs, per-app IPS)")
		loadJobs  = flag.String("workload", "", "load a job list JSON instead of generating one")
		saveJobs  = flag.String("save-workload", "", "save the generated job list JSON")
		metrics   = flag.String("metrics", "", "dump run telemetry in Prometheus text format (\"-\" = stdout)")
		traceOut  = flag.String("trace", "", "write sim-time spans as Chrome trace-event JSON to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}
	if *jobs <= 0 || *rate <= 0 || *dur <= 0 || *instr <= 0 {
		return fmt.Errorf("-jobs, -rate, -duration and -instr-scale must be positive")
	}

	p := experiments.NewPipeline(experiments.QuickScale())
	p.Progress = func(msg string) { log.Print(msg) }

	mgr, err := buildManager(p, *technique, *modelPath, *qtPath, *seed)
	if err != nil {
		return err
	}

	cfg := sim.DefaultConfig(*fan, 25)
	cfg.Seed = *seed
	var reg *telemetry.Registry
	if *metrics != "" {
		reg = telemetry.NewRegistry()
		telemetry.Install(reg) // bind npu/nn lazy handles too
		cfg.Telemetry = reg
		cfg.PhaseClock = telemetry.NewWallClock() // per-tick phase costs
	}
	var traces *telemetry.TraceSet
	if *traceOut != "" {
		traces = telemetry.NewTraceSet()
		cfg.Tracer = traces.Tracer("sim")
	}
	e := sim.New(cfg)
	var jobList []workload.Job
	if *loadJobs != "" {
		jobList, err = workload.LoadJobs(*loadJobs)
		if err != nil {
			return err
		}
		log.Printf("loaded %d jobs from %s", len(jobList), *loadJobs)
	} else {
		gen := workload.NewGenerator(*seed, workload.MixedPool(), p.PeakIPS, 0.2, 0.7, *instr)
		jobList = gen.Generate(*jobs, *rate)
	}
	if *saveJobs != "" {
		if err := workload.SaveJobs(jobList, *saveJobs); err != nil {
			return err
		}
		log.Printf("job list saved to %s", *saveJobs)
	}
	e.AddJobs(jobList)

	log.Printf("running %s on %d jobs (rate %.2f/s, fan=%v) for %.0f s",
		mgr.Name(), len(jobList), *rate, *fan, *dur)
	var rec *sim.Recorder
	var hook func() bool
	if *csvPath != "" {
		rec = sim.NewRecorder(e.Env(), 0.5)
		hook = rec.Hook()
	}
	res := e.RunUntil(mgr, *dur, hook)
	if reg != nil {
		if err := writeMetrics(reg, *metrics); err != nil {
			return err
		}
	}
	if traces != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := traces.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("trace written to %s (load in chrome://tracing or Perfetto)", *traceOut)
	}
	if rec != nil {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := rec.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("time series written to %s (%d samples)", *csvPath, len(rec.Samples))
	}

	fmt.Printf("technique:        %s\n", mgr.Name())
	fmt.Printf("avg temperature:  %.1f °C (peak %.1f)\n", res.AvgTemp, res.PeakTemp)
	fmt.Printf("QoS violations:   %d / %d apps\n", res.Violations, len(res.Apps))
	fmt.Printf("migrations:       %d\n", res.Migrations)
	fmt.Printf("throttled:        %.1f s\n", res.ThrottleSeconds)
	fmt.Printf("avg/peak util:    %.0f %% / %.0f %%\n", res.AvgUtil*100, res.PeakUtil*100)
	fmt.Printf("mgmt overhead:    %.1f ms/s\n", res.OverheadSeconds/res.Duration*1e3)
	fmt.Println("\nper-application results:")
	for _, a := range res.Apps {
		status := "ok"
		if a.Violated {
			status = "VIOLATED"
		}
		if !a.Finished {
			status += " (unfinished)"
		}
		fmt.Printf("  %-16s target %6.2f GIPS, achieved %6.2f GIPS  %s\n",
			a.Name, a.QoS/1e9, a.MeanIPS/1e9, status)
	}
	return nil
}

// writeMetrics dumps the registry in Prometheus text format to path, or to
// stdout when path is "-".
func writeMetrics(reg *telemetry.Registry, path string) error {
	if path == "-" {
		return reg.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("metrics written to %s", path)
	return nil
}

// buildManager assembles the requested technique, loading artifacts when
// provided and falling back to the quick pipeline otherwise.
func buildManager(p *experiments.Pipeline, technique, modelPath, qtPath string,
	seed int64) (sim.Manager, error) {
	switch technique {
	case "TOP-IL":
		if modelPath == "" {
			log.Print("no -model given: training a quick-scale model")
			return p.Manager(technique, 0)
		}
		m, err := core.LoadModel(modelPath, features.Dim(8, 2), 8)
		if err != nil {
			return nil, err
		}
		return core.New(npu.New(m), core.DefaultConfig()), nil
	case "TOP-RL":
		if qtPath == "" {
			log.Print("no -qtable given: pretraining a quick-scale policy")
			return p.Manager(technique, 0)
		}
		table, err := rl.LoadQTable(qtPath)
		if err != nil {
			return nil, err
		}
		return rl.New(table, rl.DefaultParams(), seed), nil
	default:
		return p.Manager(technique, 0)
	}
}
