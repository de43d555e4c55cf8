package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// These tests exercise the result types' accessors and Render methods on
// hand-built values — no simulation required.

func TestFig1ResultOptimal(t *testing.T) {
	r := &Fig1Result{Rows: []Fig1Row{
		{App: "adi", Scenario: 1, Mapping: "LITTLE", AvgTemp: 30},
		{App: "adi", Scenario: 1, Mapping: "big", AvgTemp: 28},
		{App: "adi", Scenario: 2, Mapping: "LITTLE", AvgTemp: 40},
	}}
	if got := r.Optimal("adi", 1); got != "big" {
		t.Errorf("Optimal = %q", got)
	}
	if got := r.Optimal("adi", 2); got != "LITTLE" {
		t.Errorf("Optimal scenario 2 = %q", got)
	}
	if got := r.Optimal("nope", 1); got != "" {
		t.Errorf("Optimal for unknown app = %q", got)
	}
	if out := r.Render(); !strings.Contains(out, "Fig. 1") {
		t.Error("Render missing title")
	}
}

func TestFig8ResultAccessors(t *testing.T) {
	r := &Fig8Result{Fan: true, CPUTime: map[string][][]float64{
		"TOP-IL": {{1, 2}, {3, 4}},
	}}
	r.Cells = []Fig8Cell{
		{Technique: "TOP-IL", ArrivalRate: 0.1, AvgTemp: stats.Summary{Mean: 30},
			Violations: stats.Summary{Mean: 1}},
		{Technique: "TOP-IL", ArrivalRate: 0.2, AvgTemp: stats.Summary{Mean: 32},
			Violations: stats.Summary{Mean: 3}},
		{Technique: "GTS/ondemand", ArrivalRate: 0.1, AvgTemp: stats.Summary{Mean: 40}},
	}
	if got := r.MeanTempOf("TOP-IL"); got != 31 {
		t.Errorf("MeanTempOf = %g, want 31", got)
	}
	if got := r.MeanViolationsOf("TOP-IL"); got != 2 {
		t.Errorf("MeanViolationsOf = %g, want 2", got)
	}
	out := r.Render()
	if !strings.Contains(out, "with fan") || !strings.Contains(out, "GTS/ondemand") {
		t.Errorf("Render incomplete:\n%s", out)
	}
	if out := r.RenderFig10(); !strings.Contains(out, "TOP-IL") {
		t.Errorf("RenderFig10 incomplete:\n%s", out)
	}
}

func TestFig11ResultAccessors(t *testing.T) {
	r := &Fig11Result{Rows: []Fig11Row{
		{App: "a", Technique: "TOP-IL", AvgTemp: stats.Summary{Mean: 28}, Violations: 0, Runs: 3},
		{App: "b", Technique: "TOP-IL", AvgTemp: stats.Summary{Mean: 30}, Violations: 1, Runs: 3},
		{App: "a", Technique: "GTS/powersave", AvgTemp: stats.Summary{Mean: 27}, Violations: 3, Runs: 3},
	}}
	v, n := r.TotalViolations("TOP-IL")
	if v != 1 || n != 6 {
		t.Errorf("TotalViolations = %d/%d, want 1/6", v, n)
	}
	if got := r.MeanTempOf("TOP-IL"); got != 29 {
		t.Errorf("MeanTempOf = %g", got)
	}
	if out := r.Render(); !strings.Contains(out, "Fig. 11") {
		t.Error("Render missing title")
	}
}

func TestFig5AndFig12Render(t *testing.T) {
	f5 := &Fig5Result{Rows: []Fig5Row{{App: "x", Overhead: 0.012}},
		Average: 0.012, Maximum: 0.012}
	if out := f5.Render(); !strings.Contains(out, "+1.20 %") {
		t.Errorf("Fig5 render: %s", out)
	}
	f12 := &Fig12Result{Rows: []Fig12Row{{Apps: 4, DVFSMsPerCall: 0.2,
		MigrationMsPerCall: 4.2, CPUMigrationMsPerCall: 3.9}}}
	if out := f12.Render(); !strings.Contains(out, "4.20") {
		t.Errorf("Fig12 render: %s", out)
	}
}

func TestModelEvalRender(t *testing.T) {
	r := &ModelEvalResult{
		TestAoIs:   []string{"jacobi-2d"},
		WithinOneC: stats.Summary{Mean: 0.82, Std: 0.05},
		MeanExcess: stats.Summary{Mean: 0.5, Std: 0.2},
		Examples:   100,
	}
	out := r.Render()
	for _, want := range []string{"82±5", "0.50±0.20", "jacobi-2d"} {
		if !strings.Contains(out, want) {
			t.Errorf("model eval render missing %q:\n%s", want, out)
		}
	}
}

func TestFig7TraceRender(t *testing.T) {
	r := &Fig7Result{Traces: []Fig7Trace{
		{App: "adi", Technique: "TOP-IL", OptimalBig: true, OptimalFrac: 1.0,
			Migrations: 0, AvgTemp: 27.5, QoSMet: true},
	}}
	out := r.Render()
	if !strings.Contains(out, "optimal=big") || !strings.Contains(out, "100.0%") {
		t.Errorf("Fig7 render: %s", out)
	}
}

func TestAblationRenderSorted(t *testing.T) {
	r := &AblationResult{
		Name:     "demo",
		Default:  map[string]float64{"b": 2, "a": 1},
		Variant:  map[string]float64{"b": 3, "a": 4},
		MetricFn: "unit test",
	}
	out := r.Render()
	ia, ib := strings.Index(out, "a "), strings.Index(out, "b ")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("ablation metrics not sorted:\n%s", out)
	}
}

func TestCSVExporters(t *testing.T) {
	var buf bytes.Buffer
	f8 := &Fig8Result{Fan: true, CPUTime: map[string][][]float64{
		"TOP-IL": {{1}, {2}}}}
	f8.Cells = []Fig8Cell{{Technique: "TOP-IL", ArrivalRate: 0.1,
		AvgTemp: stats.Summary{Mean: 30, Std: 1}}}
	if err := f8.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	assertCSV(t, buf.String(), 2, "TOP-IL")

	buf.Reset()
	if err := f8.WriteFig10CSV(&buf); err != nil {
		t.Fatal(err)
	}
	assertCSV(t, buf.String(), 3, "TOP-IL")

	buf.Reset()
	f11 := &Fig11Result{Rows: []Fig11Row{{App: "canneal", Technique: "TOP-IL",
		AvgTemp: stats.Summary{Mean: 28}, Violations: 0, Runs: 3}}}
	if err := f11.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	assertCSV(t, buf.String(), 2, "canneal")

	buf.Reset()
	f12 := &Fig12Result{Rows: []Fig12Row{{Apps: 8, DVFSMsPerCall: 0.3}}}
	if err := f12.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	assertCSV(t, buf.String(), 2, "8")

	buf.Reset()
	f7 := &Fig7Result{Traces: []Fig7Trace{{App: "adi", Technique: "TOP-IL",
		OnBig: []bool{true, false, true}}}}
	if err := f7.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	assertCSV(t, buf.String(), 4, "adi")

	buf.Reset()
	en := &EnergyResult{Rate: 0.08, Rows: []EnergyRow{{Technique: "TOP-IL",
		TotalJ: stats.Summary{Mean: 685}}}}
	if err := en.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	assertCSV(t, buf.String(), 2, "685")
}

func assertCSV(t *testing.T, out string, wantRows int, needle string) {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v\n%s", err, out)
	}
	if len(rows) != wantRows {
		t.Fatalf("rows = %d, want %d:\n%s", len(rows), wantRows, out)
	}
	if !strings.Contains(out, needle) {
		t.Fatalf("CSV missing %q:\n%s", needle, out)
	}
}
