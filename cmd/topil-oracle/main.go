// Command topil-oracle exposes the two halves of oracle-demonstration
// generation separately, mirroring the paper's methodology where trace
// collection (hours on the board) is decoupled from the cheap QoS-target
// sweep:
//
//	topil-oracle collect -aoi adi -out traces/            # expensive
//	topil-oracle extract -traces traces/ -out dataset.json.gz [-alpha 2]
//	topil-oracle inspect -dataset dataset.json.gz
//
// collect writes one trace file per scenario; extract re-sweeps saved
// traces into a training dataset under any label configuration; inspect
// summarizes a dataset.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/oracle"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topil-oracle: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "collect":
		collect(os.Args[2:])
	case "extract":
		extract(os.Args[2:])
	case "inspect":
		inspect(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: topil-oracle collect|extract|inspect [flags]")
}

func collect(args []string) {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	var (
		outDir    = fs.String("out", "traces", "output directory (one file per scenario)")
		aoi       = fs.String("aoi", "", "restrict AoIs to this comma-separated list (default: training set)")
		scenarios = fs.Int("scenarios", 10, "number of random scenarios (plus canonical ones)")
		seed      = fs.Int64("seed", 11, "scenario randomization seed")
		quick     = fs.Bool("quick", true, "use the quick trace configuration")
	)
	fs.Parse(args)

	pool := workload.TrainingSet()
	if *aoi != "" {
		pool = strings.Split(*aoi, ",")
	}
	cfg := oracleConfig(*quick)
	canon, err := oracle.CanonicalScenarios(pool)
	if err != nil {
		log.Fatal(err)
	}
	rnd, err := oracle.RandomScenarios(*scenarios, pool, *seed)
	if err != nil {
		log.Fatal(err)
	}
	scns := append(canon, rnd...)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	for i, scn := range scns {
		ts, err := oracle.CollectTraces(scn, cfg)
		if err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*outDir, fmt.Sprintf("scenario-%03d-%s.json.gz", i, scn.AoI.Name))
		if err := oracle.SaveTraces(ts, path); err != nil {
			log.Fatal(err)
		}
		log.Printf("[%d/%d] %s: %d points -> %s",
			i+1, len(scns), scn.AoI.Name, len(ts.FreeCores)*len(ts.Grid)*len(ts.Grid), path)
	}
}

func extract(args []string) {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	var (
		tracesDir = fs.String("traces", "traces", "directory of collect output")
		out       = fs.String("out", "dataset.json.gz", "output dataset")
		alpha     = fs.Float64("alpha", 0, "override soft-label sensitivity α (0 = default)")
		cap       = fs.Int("cap", 0, "max examples per scenario (0 = unlimited)")
		quick     = fs.Bool("quick", true, "use the quick sweep configuration")
	)
	fs.Parse(args)

	cfg := oracleConfig(*quick)
	if *alpha > 0 {
		cfg.Alpha = *alpha
	}
	cfg.MaxExamplesPerScenario = *cap

	entries, err := filepath.Glob(filepath.Join(*tracesDir, "*.json.gz"))
	if err != nil || len(entries) == 0 {
		log.Fatalf("no trace files in %s", *tracesDir)
	}
	d := &oracle.Dataset{NumCores: 8}
	for _, path := range entries {
		ts, err := oracle.LoadTraces(path)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		exs, err := oracle.ExtractExamples(ts, cfg)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		d.Examples = append(d.Examples, exs...)
		log.Printf("%s: %d examples", filepath.Base(path), len(exs))
	}
	if err := d.Save(*out); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d examples to %s", d.Len(), *out)
}

func inspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dataset := fs.String("dataset", "dataset.json.gz", "dataset to summarize")
	fs.Parse(args)

	d, err := oracle.Load(*dataset)
	if err != nil {
		log.Fatal(err)
	}
	st := d.ComputeStats()
	fmt.Printf("examples: %d, cores: %d, mean candidate cores: %.1f\n",
		st.Examples, d.NumCores, st.MeanFreeCores)
	fmt.Printf("labels on candidate cores: optimal %d, near-optimal %d, "+
		"suboptimal %d, infeasible %d\n",
		st.Optimal, st.NearOptimal, st.Suboptimal, st.Infeasible)
	for _, name := range d.AoINames() {
		fmt.Printf("  %-16s %6d examples\n", name, st.PerAoI[name])
	}
}

// oracleConfig returns the trace/sweep configuration.
func oracleConfig(quick bool) oracle.Config {
	if quick {
		return oracle.QuickConfig()
	}
	return oracle.DefaultConfig()
}
