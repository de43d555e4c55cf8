package oracle

import (
	"math"
	"testing"

	"repro/internal/platform"
)

// traceMaxIPS returns the highest AoI IPS anywhere in ts, simulating
// every point not read yet.
func traceMaxIPS(t *testing.T, ts *TraceSet) float64 {
	t.Helper()
	points, err := ts.fill()
	if err != nil {
		t.Fatal(err)
	}
	return maxAoIIPS(points)
}

// TestLabelVisitedMatchesSweep pins the DAgger-query labeling to the
// dataset sweep's: for selections the sweep emits, LabelVisited must
// reproduce the exact label vector (it is the same implementation, but
// this guards the refactor seam).
func TestLabelVisitedMatchesSweep(t *testing.T) {
	ts := collect(t, "adi")
	cfg := quickCfg()
	plat := platform.HiKey970()
	maxIPS := traceMaxIPS(t, ts)
	if maxIPS <= 0 {
		t.Fatal("no AoI progress in traces")
	}
	checked := 0
	for _, frac := range cfg.QoSFracs {
		q := frac * maxIPS
		for li := 0; li < len(ts.Grid); li++ {
			for bi := 0; bi < len(ts.Grid); bi++ {
				got, ok, err := LabelVisited(ts, cfg, q, li, bi)
				if err != nil {
					t.Fatal(err)
				}
				_, wantLabels, wantTemps, wantOpt, wantOK, err := labelSelection(ts, plat, cfg, q, li, bi)
				if err != nil {
					t.Fatal(err)
				}
				if ok != wantOK {
					t.Fatalf("q=%g li=%d bi=%d: ok=%v, want %v", q, li, bi, ok, wantOK)
				}
				if !ok {
					continue
				}
				checked++
				if got.OptTemp != wantOpt {
					t.Errorf("q=%g li=%d bi=%d: optTemp %g != %g", q, li, bi, got.OptTemp, wantOpt)
				}
				for c := range got.Labels {
					if got.Labels[c] != wantLabels[c] || got.Temps[c] != wantTemps[c] {
						t.Errorf("q=%g li=%d bi=%d core %d: labels/temps diverge", q, li, bi, c)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no feasible selections labeled")
	}
}

// TestLabelVisitedProperties checks the Eq. (4) shape on a feasible query:
// exactly the free cores carry labels, the optimum is 1, infeasible free
// cores are −1, and background cores stay 0.
func TestLabelVisitedProperties(t *testing.T) {
	ts := collect(t, "adi")
	cfg := quickCfg()
	q := 0.3 * traceMaxIPS(t, ts)
	vl, ok, err := LabelVisited(ts, cfg, q, 0, 0)
	if err != nil || !ok {
		t.Fatalf("LabelVisited: ok=%v err=%v", ok, err)
	}
	if len(vl.Labels) != ts.NumCores || len(vl.Temps) != ts.NumCores {
		t.Fatalf("label vector sized %d/%d, want %d", len(vl.Labels), len(vl.Temps), ts.NumCores)
	}
	free := map[platform.CoreID]bool{}
	for _, c := range ts.FreeCores {
		free[c] = true
	}
	sawOpt := false
	for c := 0; c < ts.NumCores; c++ {
		l := vl.Labels[c]
		if !free[platform.CoreID(c)] {
			if l != 0 {
				t.Errorf("background core %d labeled %g, want 0", c, l)
			}
			continue
		}
		switch {
		case l == -1: // infeasible free core
		case l > 0 && l <= 1:
			if math.Abs(vl.Temps[c]-vl.OptTemp) < 1e-12 && l == 1 {
				sawOpt = true
			}
			if l == 1 && vl.Temps[c] != vl.OptTemp {
				t.Errorf("core %d labeled 1 but temp %g != opt %g", c, vl.Temps[c], vl.OptTemp)
			}
		default:
			t.Errorf("free core %d labeled %g, outside (0,1] ∪ {−1}", c, l)
		}
	}
	if !sawOpt {
		t.Error("no core carries the optimal label 1")
	}
	// Out-of-range grid positions are a skip, not a panic.
	if _, ok, err := LabelVisited(ts, cfg, q, -1, 0); ok || err != nil {
		t.Errorf("negative grid position: ok=%v err=%v, want skip", ok, err)
	}
	if _, ok, err := LabelVisited(ts, cfg, q, 0, len(ts.Grid)); ok || err != nil {
		t.Errorf("overflowing grid position: ok=%v err=%v, want skip", ok, err)
	}
}

// TestGridPosFor pins the requirement→grid quantization.
func TestGridPosFor(t *testing.T) {
	plat := platform.HiKey970()
	little, _ := plat.ClusterByKind(platform.Little)
	grid := []int{0, 4, 8}
	if p := GridPosFor(little, grid, 0); p != 0 {
		t.Errorf("zero requirement → pos %d, want 0", p)
	}
	if p := GridPosFor(little, grid, little.FreqAt(4)); p != 1 {
		t.Errorf("exact mid frequency → pos %d, want 1", p)
	}
	if p := GridPosFor(little, grid, little.FreqAt(4)+1); p != 2 {
		t.Errorf("just above mid → pos %d, want 2", p)
	}
	if p := GridPosFor(little, grid, little.FreqAt(8)*2); p != 2 {
		t.Errorf("unreachable requirement → pos %d, want last (2)", p)
	}
}
