// Command topil-lint runs the repository's custom static-analysis suite
// (internal/analysis) over the given package patterns.
//
// Per-package rules: detrand (no global RNG or wall clock in the
// deterministic packages), lockcheck (Lock/Unlock and RLock/RUnlock
// pairing on every path, double-lock and RLock→Lock upgrade deadlocks;
// mutex copies are left to go vet's copylocks),
// unitcheck (unit annotations on physical float64 fields and
// parameters), exitcheck (no os.Exit / log.Fatal / undocumented panic in
// library code), testkitonly (the fault-injection harness
// internal/testkit may only be imported from _test.go files),
// telemetrycheck (no expvar, no wall-clock reads fed into telemetry
// calls, Prometheus-valid metric names), ctxflow (context.Context
// discipline: ctx first, no fresh roots in request-scoped code,
// NewRequestWithContext, cancellable channel waits) and hotalloc
// (functions annotated //hot:<reason> must be allocation-free per the
// compiler's escape analysis).
//
// Whole-program rules, resolved through the module call graph: goleak
// (every spawned goroutine has a provable exit path, including closures
// handed to spawn helpers) and closecheck (response bodies, files,
// listeners and tickers are released on every path, with ownership
// transfer across calls).
//
// Exit status: 0 when the tree is clean, 3 when findings are reported,
// 1 on operational errors (bad pattern, unreadable files).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
)

func main() {
	flag.Usage = usage
	jsonOut := flag.Bool("json", false, "emit a JSON report (diagnostics and timings) instead of text")
	rules := flag.String("rules", "all", "comma-separated rules to run (\"all\" = full suite)")
	disable := flag.String("disable", "", "comma-separated rules to skip")
	typeErrs := flag.Bool("typeerrors", false, "also print type-checker errors (analysis is best-effort without)")
	flag.Parse()

	code, err := run(flag.Args(), options{
		rules:    *rules,
		disable:  *disable,
		jsonOut:  *jsonOut,
		typeErrs: *typeErrs,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "topil-lint: %v\n", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func usage() {
	fmt.Fprintf(os.Stderr, "Usage: topil-lint [flags] [patterns]\n\n")
	fmt.Fprintf(os.Stderr, "Patterns are package directories or recursive forms like ./... (default ./...).\n")
	fmt.Fprintf(os.Stderr, "Suppress a finding with `//lint:ignore <rule> <reason>` on or above its line.\n\nRules:\n")
	for _, a := range analysis.All() {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nFlags:\n")
	flag.PrintDefaults()
}

// options carries the parsed command line.
type options struct {
	rules, disable    string
	jsonOut, typeErrs bool
}

// report is the -json envelope. The diagnostics array keeps the pinned
// five-key shape; the envelope adds run metadata (scripts/check.sh reads
// analysis_wall_seconds for the lint time budget).
type report struct {
	Diagnostics         []analysis.Diagnostic `json:"diagnostics"`
	Packages            int                   `json:"packages"`
	LoadSeconds         float64               `json:"load_seconds"`
	AnalysisWallSeconds float64               `json:"analysis_wall_seconds"`
}

// selectAnalyzers resolves the -rules/-disable flags against the suite.
func selectAnalyzers(rules, disable string) ([]*analysis.Analyzer, error) {
	suite := analysis.All()
	var picked []*analysis.Analyzer
	if rules == "all" || rules == "" {
		picked = suite
	} else {
		for _, name := range strings.Split(rules, ",") {
			name = strings.TrimSpace(name)
			a := analysis.ByName(suite, name)
			if a == nil {
				return nil, fmt.Errorf("unknown rule %q (have: %s)", name, ruleNames(suite))
			}
			picked = append(picked, a)
		}
	}
	if disable != "" {
		skip := map[string]bool{}
		for _, name := range strings.Split(disable, ",") {
			name = strings.TrimSpace(name)
			if analysis.ByName(suite, name) == nil {
				return nil, fmt.Errorf("unknown rule %q in -disable (have: %s)", name, ruleNames(suite))
			}
			skip[name] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range picked {
			if !skip[a.Name] {
				kept = append(kept, a)
			}
		}
		picked = kept
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("no rules selected")
	}
	return picked, nil
}

func ruleNames(suite []*analysis.Analyzer) string {
	names := make([]string, len(suite))
	for i, a := range suite {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

func run(patterns []string, opts options) (int, error) {
	analyzers, err := selectAnalyzers(opts.rules, opts.disable)
	if err != nil {
		return 0, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return 0, err
	}
	loadStart := time.Now()
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return 0, err
	}
	loadSecs := time.Since(loadStart).Seconds()
	if opts.typeErrs {
		for _, p := range pkgs {
			for _, e := range p.TypeErrors {
				fmt.Fprintf(os.Stderr, "topil-lint: typecheck %s: %v\n", p.Path, e)
			}
		}
	}

	analysisStart := time.Now()
	diags := analysis.Run(pkgs, analyzers)
	wallSecs := time.Since(analysisStart).Seconds()

	if opts.jsonOut {
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{
			Diagnostics:         diags,
			Packages:            len(pkgs),
			LoadSeconds:         loadSecs,
			AnalysisWallSeconds: wallSecs,
		}); err != nil {
			return 0, err
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
		if len(diags) > 0 {
			fmt.Printf("topil-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
	}
	if len(diags) > 0 {
		return 3, nil
	}
	return 0, nil
}
