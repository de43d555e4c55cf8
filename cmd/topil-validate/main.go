// Command topil-validate runs the reproduction's self-checks.
//
// With no flags it runs the calibration checks of the simulated platform:
// the physical invariants (frequency scaling, big/LITTLE asymmetry, leakage
// feedback, cooling ordering, engine conservation and determinism) that the
// policy comparisons rest on.
//
// With -packages it runs declarative conformance packages (see
// docs/CONFORMANCE.md): every scenario cell simulates on the experiments
// pipeline, and golden metric envelopes gate the results.
//
// Either mode exits 0 when everything passes and 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/conformance"
	"repro/internal/experiments"
	"repro/internal/validate"
)

func main() {
	var (
		packagesDir = flag.String("packages", "",
			"run conformance packages from this directory instead of the calibration checks")
		jsonOut = flag.Bool("json", false,
			"with -packages: emit the report as JSON instead of text")
		workers = flag.Int("j", 0,
			"with -packages: simulation worker count (0 = GOMAXPROCS); reports are byte-identical at any setting")
		scaleName = flag.String("scale", "quick",
			"with -packages: experiment scale for trained artifacts (quick or full)")
		artifactsDir = flag.String("artifacts", "",
			"with -packages: cache design-time artifacts (dataset, models, Q-tables) in this directory")
		verbose = flag.Bool("v", false,
			"with -packages: print pipeline progress to stderr")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "topil-validate: unexpected arguments: %v\n", flag.Args())
		os.Exit(1)
	}
	if *packagesDir == "" {
		runCalibration()
		return
	}
	os.Exit(runPackages(*packagesDir, *jsonOut, *workers, *scaleName,
		*artifactsDir, *verbose))
}

// runCalibration is the classic no-flag mode.
func runCalibration() {
	results := validate.All()
	for _, r := range results {
		status := "PASS"
		if !r.OK {
			status = "FAIL"
		}
		fmt.Printf("%-4s %-40s %s\n", status, r.Name, r.Detail)
	}
	if failed := validate.Failed(results); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d checks failed\n", len(failed), len(results))
		os.Exit(1)
	}
	fmt.Printf("all %d checks passed\n", len(results))
}

// runPackages executes the conformance mode and returns the exit code.
func runPackages(dir string, jsonOut bool, workers int, scaleName, artifactsDir string, verbose bool) int {
	pkgs, err := conformance.LoadDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	var scale experiments.Scale
	switch scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "topil-validate: unknown -scale %q (quick or full)\n", scaleName)
		return 1
	}
	p := experiments.NewPipeline(scale)
	p.Workers = workers
	p.ArtifactsDir = artifactsDir
	if verbose {
		p.Progress = func(msg string) { fmt.Fprintln(os.Stderr, "·", msg) }
	}

	rep, err := conformance.Run(p, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topil-validate:", err)
		return 1
	}
	if jsonOut {
		js, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "topil-validate:", err)
			return 1
		}
		fmt.Println(string(js))
	} else {
		fmt.Print(rep.Render())
	}
	if !rep.Pass {
		return 1
	}
	return 0
}
