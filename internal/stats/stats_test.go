package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	// Sample std of this classic set is ~2.138.
	if got := Std(xs); math.Abs(got-2.138) > 0.01 {
		t.Errorf("Std = %g, want ~2.138", got)
	}
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{1}) != 0 {
		t.Error("degenerate inputs not handled")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %g/%g", Min(xs), Max(xs))
	}
	for _, f := range []func([]float64) float64{Min, Max} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty slice: expected panic")
				}
			}()
			f(nil)
		}()
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{10, 12, 14})
	if s.Mean != 12 {
		t.Errorf("mean = %g", s.Mean)
	}
	if got := s.String(); got != "12.0±2.0" {
		t.Errorf("String = %q", got)
	}
}

func TestMeanBetweenMinMaxProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= Min(clean)-1e-6 && m <= Max(clean)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("technique", "temp", "violations")
	tab.AddRow("TOP-IL", "38.2", "0.3")
	tab.AddRow("GTS/ondemand", "55.2", "0.1")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "technique") || !strings.Contains(lines[1], "---") {
		t.Errorf("header/rule malformed:\n%s", out)
	}
	// Columns aligned: every data line has the same prefix width for col 2.
	idx0 := strings.Index(lines[2], "38.2")
	idx1 := strings.Index(lines[3], "55.2")
	if idx0 != idx1 {
		t.Errorf("columns misaligned: %d vs %d\n%s", idx0, idx1, out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow("x")
	tab.AddRow("y", "z", "extra")
	out := tab.String()
	if !strings.Contains(out, "extra") {
		t.Errorf("wide row lost:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty series: %q", got)
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline runes = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline endpoints: %q", s)
	}
	// Constant series: mid level, no panic.
	c := []rune(Sparkline([]float64{5, 5, 5}))
	if len(c) != 3 || c[0] != c[2] {
		t.Errorf("constant sparkline: %q", string(c))
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart([]string{"TOP-IL", "ondemand"}, []float64{31, 45}, 20, "%.0f°C")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "31°C") || !strings.Contains(lines[1], "45°C") {
		t.Errorf("values missing:\n%s", out)
	}
	// The larger value fills the full width.
	if !strings.Contains(lines[1], strings.Repeat("█", 20)) {
		t.Errorf("max bar not full width:\n%s", out)
	}
	// Zero-length input and mismatch.
	if BarChart(nil, nil, 10, "%g") != "" {
		t.Error("empty chart not empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths: expected panic")
		}
	}()
	BarChart([]string{"a"}, []float64{1, 2}, 10, "%g")
}
