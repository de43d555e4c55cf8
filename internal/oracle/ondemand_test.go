package oracle

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// onDemandScenarios draws the random scenarios the on-demand tests query.
func onDemandScenarios(t *testing.T) []Scenario {
	t.Helper()
	scns, err := RandomScenarios(4, []string{"adi", "seidel-2d", "syr2k", "heat-3d"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return scns
}

// sameBits reports whether two float slices are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestOnDemandLabelsMatchCollected pins the on-demand trace set to the
// fully collected one: every DAgger query, at QoS targets from below the
// slowest to beyond the fastest point and every background requirement,
// gets bit-identical labels, temperatures and optimum from a fresh set and
// from one set shared by all of the scenario's queries. The fresh sets
// simulate points in another order than CollectTraces, so state leaking
// from one simulation into the next shows as a mismatch.
func TestOnDemandLabelsMatchCollected(t *testing.T) {
	cfg := QuickConfig()
	for i, scn := range onDemandScenarios(t) {
		full, err := CollectTraces(scn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := NewTraceSet(scn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		maxIPS := traceMaxIPS(t, full)
		for f := 11; f >= 1; f-- {
			q := float64(f) / 10 * maxIPS
			for li := range full.Grid {
				for bi := range full.Grid {
					want, wantOK, wantErr := LabelVisited(full, cfg, q, li, bi)
					fresh, err := NewTraceSet(scn, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for name, ts := range map[string]*TraceSet{"fresh": fresh, "shared": shared} {
						got, ok, err := LabelVisited(ts, cfg, q, li, bi)
						if ok != wantOK || fmt.Sprint(err) != fmt.Sprint(wantErr) {
							t.Fatalf("scenario %d %s set q=%g li=%d bi=%d: (ok, err) = (%v, %v), want (%v, %v)",
								i, name, q, li, bi, ok, err, wantOK, wantErr)
						}
						if !sameBits(got.Labels, want.Labels) || !sameBits(got.Temps, want.Temps) ||
							math.Float64bits(got.OptTemp) != math.Float64bits(want.OptTemp) {
							t.Fatalf("scenario %d %s set q=%g li=%d bi=%d: labels %+v, collected %+v",
								i, name, q, li, bi, got, want)
						}
					}
				}
			}
		}
	}
}

// TestOnDemandQueryReadsOneColumnPerCore bounds what one query simulates:
// Eq. (3) walks one grid column per free core, so a fresh set holds at most
// |FreeCores|·|Grid| points and 2|Grid|−1 warm fields afterwards, never
// the whole |FreeCores|·|Grid|² grid.
func TestOnDemandQueryReadsOneColumnPerCore(t *testing.T) {
	cfg := QuickConfig()
	for i, scn := range onDemandScenarios(t) {
		full, err := CollectTraces(scn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		maxIPS := traceMaxIPS(t, full)
		n := len(full.Grid)
		for _, frac := range []float64{0.1, 0.6, 1.1} {
			for li := 0; li < n; li++ {
				for bi := 0; bi < n; bi++ {
					ts, err := NewTraceSet(scn, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, _, err := LabelVisited(ts, cfg, frac*maxIPS, li, bi); err != nil {
						t.Fatal(err)
					}
					if got, max := len(ts.points), len(ts.FreeCores)*n; got == 0 || got > max {
						t.Fatalf("scenario %d frac=%g li=%d bi=%d: %d points simulated, want 1..%d",
							i, frac, li, bi, got, max)
					}
					if got, max := len(ts.warm), 2*n-1; got == 0 || got > max {
						t.Fatalf("scenario %d frac=%g li=%d bi=%d: %d warm-ups, want 1..%d",
							i, frac, li, bi, got, max)
					}
				}
			}
		}
	}
}

// TestTraceSetMisses checks the points a set refuses: an on-demand set
// does not simulate a background core or an off-grid position, and a
// loaded set, which has no Config, reports a point its file lacks as
// missing rather than simulating it.
func TestTraceSetMisses(t *testing.T) {
	cfg := quickCfg()
	scn := paperScenario(t, "adi")
	lazy, err := NewTraceSet(scn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []traceKey{{0, 0, 0}, {3, -1, 0}, {6, 0, len(cfg.LevelGrid)}} {
		if _, err := lazy.Point(k.core, k.li, k.bi); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Errorf("Point%+v: err = %v, want a missing point", k, err)
		}
	}
	if len(lazy.points) != 0 || len(lazy.warm) != 0 {
		t.Fatalf("refused points simulated %d points, %d warm-ups", len(lazy.points), len(lazy.warm))
	}

	path := filepath.Join(t.TempDir(), "traces.json.gz")
	if err := SaveTraces(lazy, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTraces(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(lazy.FreeCores) * len(cfg.LevelGrid) * len(cfg.LevelGrid); len(back.points) != want {
		t.Fatalf("saved %d points of an on-demand set, want the whole grid of %d", len(back.points), want)
	}
	delete(back.points, traceKey{3, 0, 0})
	_, _, err = LabelVisited(back, cfg, 1, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "missing trace point core=3 li=0 bi=0") {
		t.Fatalf("LabelVisited on a loaded set without the point: err = %v", err)
	}
	if _, ok := back.points[traceKey{3, 0, 0}]; ok {
		t.Fatal("a loaded set simulated a point")
	}
}
