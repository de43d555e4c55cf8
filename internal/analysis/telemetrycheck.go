package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// metricConstructors are the internal/telemetry calls whose first argument
// is a metric family name and must therefore match the Prometheus data
// model ([a-zA-Z_:][a-zA-Z0-9_:]*).
var metricConstructors = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterVec": true, "GaugeVec": true, "HistogramVec": true,
	"GaugeFunc": true,
}

// TelemetryCheck returns the observability-discipline analyzer.
func TelemetryCheck() *Analyzer {
	a := &Analyzer{
		Name: "telemetrycheck",
		Doc: "enforce observability discipline outside internal/telemetry and cmd/: " +
			"no expvar (the repo has one metrics registry), no time.Now/time.Since " +
			"fed directly into telemetry calls (timestamps must flow through an " +
			"injected telemetry.Clock so deterministic packages can trace in " +
			"sim-time), and metric names passed to registry constructors must " +
			"match the Prometheus charset [a-zA-Z_:][a-zA-Z0-9_:]*",
	}
	a.Run = runTelemetryCheck
	return a
}

func runTelemetryCheck(pass *Pass) {
	// Binaries wire wall-clocks and trace files together, so the rule
	// exempts everything under a cmd/ tree.
	if hasSegments(pass.Pkg.Path, "internal/telemetry") || hasSegments(pass.Pkg.Path, "cmd") {
		return
	}
	for _, f := range pass.Pkg.Files {
		telemetryLocals, timeLocals := telemetryImports(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, isTelemetry := telemetryCallee(pass, call, telemetryLocals)
			if !isTelemetry {
				return true
			}
			for _, arg := range call.Args {
				checkNoClockRead(pass, arg, timeLocals)
			}
			if metricConstructors[name] && len(call.Args) > 0 {
				checkMetricName(pass, call.Args[0])
			}
			return true
		})
	}
}

// telemetryImports maps the file-local names of the telemetry and time
// imports, and reports any expvar import as a finding on the spot.
func telemetryImports(pass *Pass, f *ast.File) (telemetryLocals, timeLocals map[string]bool) {
	telemetryLocals = map[string]bool{}
	timeLocals = map[string]bool{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch {
		case path == "expvar":
			pass.Reportf(imp.Pos(),
				"expvar bypasses the telemetry registry; export metrics through internal/telemetry instead")
		case hasSegments(path, "internal/telemetry") && name != "_" && name != ".":
			telemetryLocals[name] = true
		case path == "time" && name != "_" && name != ".":
			timeLocals[name] = true
		}
	}
	return telemetryLocals, timeLocals
}

// telemetryCallee resolves whether call invokes a function or method of the
// telemetry package, returning the callee's bare name. Resolution prefers
// type information (catching method calls like reg.Counter or h.Observe);
// when the type checker could not resolve the selector, it degrades to the
// syntactic pattern telemetry.<Name> using the file's import names.
func telemetryCallee(pass *Pass, call *ast.CallExpr, telemetryLocals map[string]bool) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if obj := pass.Pkg.Info.Uses[sel.Sel]; obj != nil {
		if pkg := obj.Pkg(); pkg != nil && hasSegments(pkg.Path(), "internal/telemetry") {
			return sel.Sel.Name, true
		}
		return "", false
	}
	if ident, ok := sel.X.(*ast.Ident); ok && telemetryLocals[ident.Name] {
		return sel.Sel.Name, true
	}
	return "", false
}

// checkNoClockRead walks one telemetry-call argument looking for wall-clock
// reads. Function literals are deliberately NOT descended into: a closure
// handed to GaugeFunc is evaluated at scrape time by the collector, which
// is the exporter's (wall-time) context, not the instrumented package's.
func checkNoClockRead(pass *Pass, arg ast.Expr, timeLocals map[string]bool) {
	ast.Inspect(arg, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok || !timeLocals[ident.Name] {
			return true
		}
		if obj := pass.Pkg.Info.Uses[ident]; obj != nil {
			if _, isPkg := obj.(*types.PkgName); !isPkg {
				return true
			}
		}
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
			pass.Reportf(sel.Pos(),
				"%s.%s fed into a telemetry call; inject a telemetry.Clock so timestamps follow the package's time base",
				ident.Name, sel.Sel.Name)
		}
		return true
	})
}

// checkMetricName validates a literal metric family name with
// telemetry.ValidName, the check telemetry.Registry panics on at runtime.
// Non-literal names are skipped: they are resolved at runtime.
func checkMetricName(pass *Pass, arg ast.Expr) {
	lit, ok := arg.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !telemetry.ValidName(name) {
		pass.Reportf(lit.Pos(),
			"metric name %q does not match the Prometheus charset [a-zA-Z_:][a-zA-Z0-9_:]*", name)
	}
}
