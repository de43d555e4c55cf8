package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// dump renders the graph as sorted "caller -> callee" lines (with [go] /
// [defer] markers), the golden format used by the call-graph tests.
func (cg *CallGraph) dump() string {
	var lines []string
	for _, n := range cg.Nodes {
		for _, site := range n.Out {
			mark := ""
			if site.Go {
				mark = " [go]"
			} else if site.Defer {
				mark = " [defer]"
			}
			if len(site.Callees) == 0 {
				lines = append(lines, fmt.Sprintf("%s -> ?%s", n.Name, mark))
				continue
			}
			for _, c := range site.Callees {
				suffix := mark
				if site.Unresolved {
					suffix += " [+external]"
				}
				lines = append(lines, fmt.Sprintf("%s -> %s%s", n.Name, c.Name, suffix))
			}
		}
	}
	sort.Strings(lines)
	// Dedup: two sites calling the same target render identically.
	var out []string
	for _, l := range lines {
		if len(out) == 0 || out[len(out)-1] != l {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n") + "\n"
}

// loadCallGraphFixture builds the whole-program view of the dedicated
// call-graph fixture module (testdata/src/callgraph).
func loadCallGraphFixture(t *testing.T) *Program {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("testdata/src/callgraph/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	return BuildProgram(pkgs)
}

// fix abbreviates the fixture's import path in test tables.
const fix = "repro/internal/analysis/testdata/src/callgraph"

// TestCallGraphDumpGolden pins the full resolved graph — one line per
// (caller, callee) edge — against testdata/callgraph.golden. Regenerate
// the golden by pasting Dump() output after a deliberate change.
func TestCallGraphDumpGolden(t *testing.T) {
	prog := loadCallGraphFixture(t)
	got := prog.Graph.dump()
	want, err := os.ReadFile(filepath.Join("testdata", "callgraph.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("call graph dump mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCallGraphEdges spells the golden out mechanism by mechanism, so a
// regression names the resolution path that broke rather than a diff.
func TestCallGraphEdges(t *testing.T) {
	prog := loadCallGraphFixture(t)
	cases := []struct {
		name       string
		caller     string
		callee     string // "" for an unresolved-only site ("?")
		goSite     bool
		deferSite  bool
		unresolved bool
	}{
		{name: "static call", caller: fix + ".chain", callee: fix + ".middle"},
		{name: "interface dispatch impl 1", caller: fix + ".TotalArea",
			callee: "(" + fix + ".Square).Area", unresolved: true},
		{name: "interface dispatch impl 2", caller: fix + ".TotalArea",
			callee: "(" + fix + ".Circle).Area", unresolved: true},
		{name: "closure bound to variable", caller: fix + ".UseClosure",
			callee: fix + ".UseClosure$1"},
		{name: "method value", caller: fix + ".UseMethodValue",
			callee: "(" + fix + ".Square).Area"},
		{name: "go site", caller: fix + ".Spawn", callee: fix + ".tick", goSite: true},
		{name: "defer site", caller: fix + ".Spawn", callee: fix + ".cleanup", deferSite: true},
		{name: "spawned parameter is opaque at the helper", caller: fix + ".launch",
			callee: "", goSite: true, unresolved: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			site := findSite(prog.Graph, tc.caller, tc.callee)
			if site == nil {
				t.Fatalf("no call site %s -> %q", tc.caller, tc.callee)
			}
			if site.Go != tc.goSite || site.Defer != tc.deferSite || site.Unresolved != tc.unresolved {
				t.Errorf("site %s -> %q: go=%v defer=%v unresolved=%v, want go=%v defer=%v unresolved=%v",
					tc.caller, tc.callee, site.Go, site.Defer, site.Unresolved,
					tc.goSite, tc.deferSite, tc.unresolved)
			}
		})
	}
}

// findSite locates the call site from caller to callee (by node name);
// callee "" matches a site with no resolved targets.
func findSite(cg *CallGraph, caller, callee string) *CallSite {
	for _, n := range cg.Nodes {
		if n.Name != caller {
			continue
		}
		for _, site := range n.Out {
			if callee == "" {
				if len(site.Callees) == 0 {
					return site
				}
				continue
			}
			for _, c := range site.Callees {
				if c.Name == callee {
					return site
				}
			}
		}
	}
	return nil
}

// TestSpawnedParams checks the interprocedural spawn-helper fixpoint:
// launch spawns its parameter 0, and nothing else spawns parameters.
func TestSpawnedParams(t *testing.T) {
	prog := loadCallGraphFixture(t)
	spawned := prog.Graph.SpawnedParams()
	var launchNode *FuncNode
	for _, n := range prog.Graph.Nodes {
		if n.Name == fix+".launch" {
			launchNode = n
		}
	}
	if launchNode == nil {
		t.Fatal("launch node not found")
	}
	if !spawned[launchNode][0] {
		t.Errorf("SpawnedParams()[launch] = %v, want parameter 0 marked", spawned[launchNode])
	}
	for fn, params := range spawned {
		if fn != launchNode && len(params) > 0 {
			t.Errorf("unexpected spawned params on %s: %v", fn.Name, params)
		}
	}
}

// TestSiteOf checks the call-expression index used by analyzers to
// resolve arbitrary calls (closecheck's ownership transfer).
func TestSiteOf(t *testing.T) {
	prog := loadCallGraphFixture(t)
	indexed := 0
	for _, n := range prog.Graph.Nodes {
		for _, site := range n.Out {
			if prog.Graph.SiteOf(site.Call) != site {
				t.Errorf("SiteOf does not round-trip for a site in %s", n.Name)
			}
			indexed++
		}
	}
	if indexed == 0 {
		t.Fatal("fixture produced no call sites")
	}
}

// TestDumpDeterministic guards the golden against map-order flakiness:
// two independent builds must render identically.
func TestDumpDeterministic(t *testing.T) {
	a := loadCallGraphFixture(t).Graph.dump()
	b := loadCallGraphFixture(t).Graph.dump()
	if a != b {
		t.Error("Dump() is not deterministic across builds")
	}
	if !strings.HasSuffix(a, "\n") {
		t.Error("Dump() output must be newline-terminated")
	}
}
