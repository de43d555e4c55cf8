// Command topil-sim runs one managed simulation on the simulated HiKey970
// and reports the outcome: temperature, QoS violations, CPU-time breakdown
// and migrations.
//
// Techniques (scenario.Names): TOP-IL (-model from topil-train, or a quick
// model trained on the fly), TOP-RL (-qtable, or a quick policy pretrained
// on the fly), and the GTS baselines GTS/ondemand, GTS/powersave,
// GTS/schedutil and GTS/performance. The run is a scenario.Spec, so it
// takes the same defaults and range checks as POST /v1/sim (for example
// -duration at most 86400 s, -jobs at most 1024, and 0 selecting the
// default), and the model must fit the platform (21 inputs, 8 outputs).
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
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/scenario"
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
		technique = flag.String("technique", "TOP-IL", strings.Join(scenario.Names(), " | "))
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

	spec := scenario.Spec{Policy: *technique, Duration: *dur, Seed: *seed, Fan: fan,
		NumJobs: *jobs, Rate: *rate, InstrScale: *instr}.WithDefaults()
	if *loadJobs != "" {
		loaded, err := workload.LoadJobs(*loadJobs)
		if err != nil {
			return err
		}
		if len(loaded) == 0 {
			return fmt.Errorf("%s holds no jobs", *loadJobs)
		}
		log.Printf("loaded %d jobs from %s", len(loaded), *loadJobs)
		spec.Jobs = workload.JobsToEntries(loaded)
	}
	cfg, jobList, err := spec.Build()
	if err != nil {
		return err
	}

	// Artifacts given on the command line replace the quick pipeline's,
	// which are trained only when the technique needs them.
	p := experiments.NewPipeline(experiments.QuickScale())
	p.Progress = func(msg string) { log.Print(msg) }
	src := p.Source(0)
	if *modelPath != "" {
		src.Model = func() (*nn.MLP, error) { return core.LoadModel(*modelPath, 0, 0) }
	}
	if *qtPath != "" {
		src.QTable = func() (*rl.QTable, error) { return rl.LoadQTable(*qtPath) }
		src.RLSeed = *seed
	}
	mgr, err := scenario.NewManager(spec.Policy, spec.Backend, src)
	if err != nil {
		return err
	}

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
	if *saveJobs != "" {
		if err := workload.SaveJobs(jobList, *saveJobs); err != nil {
			return err
		}
		log.Printf("job list saved to %s", *saveJobs)
	}
	e.AddJobs(jobList)

	log.Printf("running %s on %d jobs (rate %.2f/s, fan=%v) for %.0f s",
		mgr.Name(), len(jobList), *rate, *fan, spec.Duration)
	var rec *sim.Recorder
	var hook func() bool
	if *csvPath != "" {
		rec = sim.NewRecorder(e.Env(), 0.5)
		hook = rec.Hook()
	}
	res := e.RunUntil(mgr, spec.Duration, hook)
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
