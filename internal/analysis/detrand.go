package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// DeterministicPackages lists the internal/<name> segments whose packages
// must be bit-reproducible: the simulation substrate, the learning stack
// and the policies. Given identical seeds, these packages must produce
// identical oracle traces, training runs and figures — so wall-clock reads
// and the process-global RNG are banned; randomness must flow from an
// explicitly seeded *rand.Rand handed in by the caller.
var DeterministicPackages = []string{
	"sim", "nn", "oracle", "rl", "workload", "thermal", "power",
	"platform", "governor", "features", "core", "testkit", "online", "scenario",
}

// DetrandExemptFiles are the designated clock-boundary files inside
// deterministic packages, keyed by their "internal/<pkg>/<file>" path
// suffix. Each package gets at most one: the file where wall-clock time
// enters and is converted to an explicit value every other file receives
// as input (e.g. online's training loop reads time.Now once per tick and
// hands RunCycle a plain unix timestamp). Keep this list painfully short —
// an exemption here is a standing invitation to nondeterminism.
var DetrandExemptFiles = []string{
	"internal/online/loop.go",
}

// detrandExempt reports whether filename (in OS form) is one of the
// exempt clock-boundary files. Matched as a path suffix, so fixture trees
// mirroring the layout under testdata are exempt too.
func detrandExempt(filename string) bool {
	name := filepath.ToSlash(filename)
	for _, e := range DetrandExemptFiles {
		if name == e || strings.HasSuffix(name, "/"+e) {
			return true
		}
	}
	return false
}

// detrandAllowed are the math/rand selectors that do NOT touch the global
// source: constructors and type names used to build or declare explicit,
// seeded generators.
var detrandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true,
	"Zipf": true, "PCG": true, "ChaCha8": true,
}

// DetRand returns the determinism analyzer.
func DetRand() *Analyzer {
	a := &Analyzer{
		Name: "detrand",
		Doc: "forbid global math/rand, crypto/rand and wall-clock reads (time.Now, " +
			"time.Since) in the deterministic packages internal/{" +
			strings.Join(DeterministicPackages, ",") + "}; randomness must come " +
			"from an explicit seeded *rand.Rand",
	}
	a.Run = runDetRand
	return a
}

// isDeterministic reports whether the package path names one of the
// deterministic packages.
func isDeterministic(path string) bool {
	for _, name := range DeterministicPackages {
		if hasSegments(path, "internal/"+name) {
			return true
		}
	}
	return false
}

func runDetRand(pass *Pass) {
	if !isDeterministic(pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		if detrandExempt(pass.Pkg.Fset.Position(f.Pos()).Filename) {
			continue
		}
		// Map the local names of the sensitive imports in this file.
		locals := map[string]string{} // local ident -> import path
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			switch path {
			case "math/rand", "math/rand/v2", "crypto/rand", "time":
			default:
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if path == "math/rand/v2" {
				name = "rand"
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == "_" || name == "." {
				continue
			}
			locals[name] = path
		}
		if len(locals) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			path, ok := locals[ident.Name]
			if !ok {
				return true
			}
			// When type info resolved this ident, require it to be the
			// package name (not a shadowing local variable).
			if obj := pass.Pkg.Info.Uses[ident]; obj != nil {
				if _, isPkg := obj.(*types.PkgName); !isPkg {
					return true
				}
			}
			name := sel.Sel.Name
			switch path {
			case "math/rand", "math/rand/v2":
				if !detrandAllowed[name] {
					pass.Reportf(sel.Pos(),
						"%s.%s uses the process-global RNG; thread a seeded *rand.Rand through instead",
						ident.Name, name)
				}
			case "crypto/rand":
				pass.Reportf(sel.Pos(),
					"crypto/rand (%s.%s) is non-deterministic; deterministic packages must use a seeded *rand.Rand",
					ident.Name, name)
			case "time":
				if name == "Now" || name == "Since" {
					pass.Reportf(sel.Pos(),
						"%s.%s reads the wall clock; deterministic packages must take time as simulated input",
						ident.Name, name)
				}
			}
			return true
		})
	}
}
