package analysis

import "strings"

// TestkitOnly returns the chaos-containment analyzer. internal/testkit is
// the deterministic fault-injection harness: it wraps backends, managers
// and workloads with injectable faults. Those wrappers must never be
// constructible from production code, so any import of the package outside
// _test.go files (which this engine never loads) or testkit itself is a
// finding.
func TestkitOnly() *Analyzer {
	a := &Analyzer{
		Name: "testkitonly",
		Doc: "forbid non-test imports of internal/testkit: the fault-injection " +
			"harness may only be used from _test.go files or from within " +
			"internal/testkit itself, so injected chaos can never ship in a " +
			"production binary",
	}
	a.Run = runTestkitOnly
	return a
}

func runTestkitOnly(pass *Pass) {
	if hasSegments(pass.Pkg.Path, "internal/testkit") {
		return
	}
	// The loader parses only non-test sources, so every import seen here is
	// one a production binary would link.
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if hasSegments(path, "internal/testkit") {
				pass.Reportf(imp.Pos(),
					"%s imported outside _test.go files; fault injection must stay out of production binaries",
					path)
			}
		}
	}
}
