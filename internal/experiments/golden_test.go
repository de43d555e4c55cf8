package experiments

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// renderFig1 runs Fig. 1 with the given worker count and returns the
// rendered report and CSV bytes.
func renderFig1(t *testing.T, workers int) (string, []byte) {
	t.Helper()
	p := NewPipeline(QuickScale())
	p.Workers = workers
	r, err := p.Fig1Motivational()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return r.Render(), csv.Bytes()
}

// TestFig1GoldenAcrossWorkerCounts is the executor's determinism guarantee
// in its user-visible form: the report text and the CSV artifact must be
// byte-identical at -j 1 and -j 8. Fig. 1 needs no trained artifacts, so
// the test stays cheap enough for -race -short runs.
func TestFig1GoldenAcrossWorkerCounts(t *testing.T) {
	seqReport, seqCSV := renderFig1(t, 1)
	parReport, parCSV := renderFig1(t, 8)
	if seqReport != parReport {
		t.Errorf("report differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			seqReport, parReport)
	}
	if !bytes.Equal(seqCSV, parCSV) {
		t.Errorf("CSV differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			seqCSV, parCSV)
	}
	if len(seqCSV) == 0 {
		t.Fatal("empty CSV artifact")
	}
}

// TestFig5GoldenAcrossWorkerCounts covers a second figure with a different
// matrix shape (per-app cells reduced by position, not appended in order).
func TestFig5GoldenAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 matrix too slow for -short")
	}
	run := func(workers int) (string, []byte) {
		p := NewPipeline(QuickScale())
		p.Workers = workers
		r, err := p.Fig5MigrationOverhead()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var csv bytes.Buffer
		if err := r.WriteCSV(&csv); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r.Render(), csv.Bytes()
	}
	seqReport, seqCSV := run(1)
	parReport, parCSV := run(8)
	if seqReport != parReport {
		t.Errorf("report differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			seqReport, parReport)
	}
	if !bytes.Equal(seqCSV, parCSV) {
		t.Errorf("CSV differs between -j1 and -j8")
	}
}

// sectionTiming matches the wall-time suffix of a report's section lines,
// "==== name (12.3s) ====".
var sectionTiming = regexp.MustCompile(`(?m)^(==== \S+) \([0-9.]+s\) ====$`)

// TestQuickReportGolden renders the whole quick-scale report, as
// topil-experiments -quick does, from the shared pipeline's figures and
// compares it with reports/quick_report.txt, section timings stripped.
func TestQuickReportGolden(t *testing.T) {
	p := pipeline(t)
	var b strings.Builder
	fmt.Fprintf(&b, "TOP-IL experiment reproduction (%s scale)\n\n", p.Scale.Name)
	for _, e := range Catalogue() {
		out, csvs, err := e.run(p)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(&b, "==== %s ====\n%s\n", e.Name, out)
		for _, c := range csvs {
			var buf bytes.Buffer
			if err := c.Write(&buf); err != nil || buf.Len() == 0 {
				t.Errorf("%s: %s: %d bytes, err %v", e.Name, c.Name, buf.Len(), err)
			}
		}
	}

	const path = "../../reports/quick_report.txt"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	want := strings.Split(sectionTiming.ReplaceAllString(string(data), "$1 ===="), "\n")
	for i := 0; i < max(len(got), len(want)); i++ {
		g, w := "<end of report>", "<end of report>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("quick report differs from %s at line %d:\n got: %q\nwant: %q\n"+
				"if the change is intended, regenerate with (from the repository root):\n"+
				"  go run ./cmd/topil-experiments -quick -out reports/quick_report.txt",
				path, i+1, g, w)
		}
	}
}
