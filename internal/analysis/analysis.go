// Package analysis is a stdlib-only static-analysis engine that enforces
// the repository's determinism, concurrency and physical-unit invariants.
//
// The reproduction's claims rest on properties that ordinary Go tooling
// does not check: identical seeds must yield identical imitation-learning
// traces (so wall-clock time and global RNG state must never leak into the
// simulation or training packages), the Eq. 1 DVFS arithmetic mixes
// frequencies, temperatures and powers (so every exported physical field
// must declare its unit), and the serving stack is concurrency-heavy (so
// mutexes must not be copied or leaked). This package machine-checks those
// conventions on every `make check`, the same way production stacks gate
// merges on bespoke lints next to vet and the race detector.
//
// The engine is built purely on go/parser and go/types with a source
// importer; it adds no module dependencies. (One analyzer, hotalloc, is
// the deliberate exception to the no-subprocess rule: it consults the real
// compiler's escape analysis via `go build -gcflags=-m`.) Interprocedural
// analyzers share a whole-program core — a module-wide call graph
// (callgraph.go, class-hierarchy analysis for interface calls, closure
// flow tracking) and a forward dataflow framework over per-function CFGs
// (cfg.go, dataflow.go). Ten analyzers encode the repo invariants:
//
//   - detrand:   no global math/rand, crypto/rand or wall-clock reads
//     (time.Now, time.Since) inside the deterministic packages; RNGs must
//     flow from an explicit seeded *rand.Rand.
//   - lockcheck: no value receivers or struct copies for types containing
//     sync.Mutex/sync.RWMutex, every Lock/RLock must be released on all
//     paths of the function that acquired it (directly or via defer), and
//     an RLock must not be upgraded to a Lock while still held.
//   - unitcheck: exported float64 struct fields and exported-function
//     parameters named like physical quantities (Freq, Temp, Power,
//     Voltage, Energy, IPS, Latency) must carry a unit annotation, as
//     internal/platform models (`Freq float64 // Hz`).
//   - exitcheck: no os.Exit/log.Fatal outside package main, and no panic
//     in library code unless the enclosing function documents it.
//   - testkitonly: the fault-injection harness internal/testkit may only
//     be imported from _test.go files or from testkit itself, so injected
//     chaos can never reach a production binary.
//   - telemetrycheck: outside internal/telemetry and cmd/, no expvar, no
//     time.Now/time.Since fed directly into telemetry calls (timestamps
//     flow through an injected telemetry.Clock), and metric names handed
//     to registry constructors must match the Prometheus charset.
//   - goleak:    every `go` statement must start a goroutine with a
//     provable exit path, resolved through the call graph (including
//     closures handed to spawn helpers).
//   - ctxflow:   context.Context parameters come first; request-scoped
//     code must not sever cancellation with context.Background()/TODO(),
//     must use http.NewRequestWithContext, and must consult ctx around
//     blocking channel operations and fsyncs.
//   - closecheck: resources with Close/Stop (response bodies, files,
//     listeners, tickers) are released on every path, including error and
//     failover paths; ownership transfers discharge the obligation.
//   - hotalloc:  //hot-annotated functions are gated to zero heap
//     allocations against the compiler's own escape analysis.
//
// A finding can be suppressed with a directive on its own line immediately
// above the offending line, or trailing the offending line:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory; a directive without one is itself a finding.
// See docs/ANALYSIS.md for the full rule catalogue and rationale.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// An Analyzer is one named invariant check. Run inspects a single package
// and reports findings through the Pass.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics, enable/disable
	// flags and //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description shown by `topil-lint -h`.
	Doc string
	// Run performs the check on one loaded package.
	Run func(*Pass)
	// NeedsProgram requests the whole-program view: when set, the driver
	// builds the module call graph once and exposes it as Pass.Prog.
	NeedsProgram bool
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		DetRand(), LockCheck(), UnitCheck(), ExitCheck(), TestkitOnly(), TelemetryCheck(),
		GoLeak(), CtxFlow(), CloseCheck(), HotAlloc(),
	}
}

// ByName resolves a rule name against the given suite, or nil.
func ByName(suite []*Analyzer, name string) *Analyzer {
	for _, a := range suite {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Pass carries one (analyzer, package) pairing and collects diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the whole-program view (all packages of this Run plus the
	// call graph); nil unless the analyzer sets NeedsProgram.
	Prog   *Program
	report func(Diagnostic)
}

// Reportf records a finding at pos. The position is resolved against the
// package's FileSet; findings suppressed by a //lint:ignore directive are
// dropped by the driver, not here.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Rule:     p.Analyzer.Name,
		Position: p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding with a stable, sortable position.
type Diagnostic struct {
	Rule     string         `json:"rule"`
	Position token.Position `json:"-"`
	Message  string         `json:"message"`

	// File, Line and Col mirror Position for JSON output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// String formats the diagnostic in the conventional file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// A Package is one loaded, parsed and (best-effort) type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/sim"). For directories
	// outside the module root it is the cleaned directory path.
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Fset positions all files of this load.
	Fset *token.FileSet
	// Files holds the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package; it may be incomplete (but is
	// never nil) when TypeErrors is non-empty.
	Types *types.Package
	// Info carries the use/def/type maps filled during checking.
	Info *types.Info
	// TypeErrors collects type-checker complaints. Analyzers degrade to
	// syntactic checks for constructs that failed to type-check.
	TypeErrors []error

	ignores []ignoreDirective
}

// Run applies each analyzer to each package, drops suppressed findings,
// reports malformed or unused suppression directives, and returns the
// remaining diagnostics sorted by position then rule. Packages are
// analysed in parallel (one worker per CPU); the whole-program call graph
// is built once up front when any analyzer requests it.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var prog *Program
	for _, a := range analyzers {
		if a.NeedsProgram {
			prog = BuildProgram(pkgs)
			break
		}
	}
	perPkg := make([][]Diagnostic, len(pkgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(pkgs) {
					return
				}
				perPkg[i] = runPackage(pkgs[i], analyzers, prog)
			}
		}()
	}
	wg.Wait()

	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	finalize(diags)
	return diags
}

// runPackage applies the suite to one package, resolving suppression
// directives. Positions are left absolute; finalize relativizes them.
func runPackage(pkg *Package, analyzers []*Analyzer, prog *Program) []Diagnostic {
	var diags []Diagnostic
	used := make([]bool, len(pkg.ignores))
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog}
		pass.report = func(d Diagnostic) {
			if i := pkg.ignoreIndex(d.Rule, d.Position); i >= 0 {
				used[i] = true
				return
			}
			diags = append(diags, d)
		}
		a.Run(pass)
	}
	for i, ig := range pkg.ignores {
		if ig.malformed {
			diags = append(diags, Diagnostic{
				Rule:     "badignore",
				Position: ig.pos,
				Message:  "//lint:ignore needs a rule name and a reason: //lint:ignore <rule> <reason>",
			})
		} else if !used[i] && enabled(analyzers, ig.rule) {
			diags = append(diags, Diagnostic{
				Rule:     "badignore",
				Position: ig.pos,
				Message:  fmt.Sprintf("//lint:ignore %s suppresses nothing here", ig.rule),
			})
		}
	}
	return diags
}

// finalize fills the JSON position mirror fields (relative to the working
// directory) and sorts diagnostics into the stable output order.
func finalize(diags []Diagnostic) {
	cwd, _ := os.Getwd()
	for i := range diags {
		diags[i].File = relativize(cwd, diags[i].Position.Filename)
		diags[i].Line = diags[i].Position.Line
		diags[i].Col = diags[i].Position.Column
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

// enabled reports whether rule is part of the active suite ("all" always
// is, so a blanket ignore never reads as unused).
func enabled(analyzers []*Analyzer, rule string) bool {
	if rule == "all" {
		return true
	}
	return ByName(analyzers, rule) != nil
}

// relativize shortens an absolute file name to be relative to base when
// the file lies beneath it; diagnostics stay readable and stable across
// checkouts.
func relativize(base, file string) string {
	if base == "" || !filepath.IsAbs(file) {
		return file
	}
	rel, err := filepath.Rel(base, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return rel
}
