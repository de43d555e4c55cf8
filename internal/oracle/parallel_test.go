package oracle

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/workload"
)

// TestBuildDatasetSameAtEveryWorkerCount builds one dataset at 1, 2, 3 and
// GOMAXPROCS workers and requires the examples, byte for byte, of a
// sequential per-scenario build; with failing scenarios, the error of the
// lowest, whichever fails first; and progress calls that never overlap
// and count 1..n.
func TestBuildDatasetSameAtEveryWorkerCount(t *testing.T) {
	cfg := quickCfg()
	scns, err := RandomScenarios(4, []string{"adi", "seidel-2d", "syr2k", "heat-3d"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := &Dataset{NumCores: platform.HiKey970().NumCores()}
	for _, scn := range scns {
		ex, err := scenarioExamples(scn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want.Examples = append(want.Examples, ex...)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	// Two invalid scenarios fail at once; the lower one's error wins. With
	// no QoS fractions every valid scenario fails too, but only after its
	// traces are collected, so the invalid scenario 2 fails first in time
	// and scenario 0's error must still win.
	bad := slices.Clone(scns)
	bad[1].Background = []BackgroundApp{{Spec: scns[1].AoI, Core: 99}}
	bad[3].Background = []BackgroundApp{{Spec: scns[3].AoI, Core: -1}}
	wantErr := fmt.Sprintf("oracle: scenario 1 (%s): oracle: background core 99 out of range", scns[1].AoI.Name)
	late := slices.Clone(scns)
	late[2].Background = bad[1].Background
	noQoS := cfg
	noQoS.QoSFracs = nil
	wantLateErr := fmt.Sprintf("oracle: scenario 0 (%s): oracle: no QoS fractions configured", scns[0].AoI.Name)

	counts := []int{1, 2, 3}
	if p := runtime.GOMAXPROCS(0); p > 3 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		var inside atomic.Bool
		var calls []int
		progress := func(done, total int) {
			if inside.Swap(true) {
				t.Errorf("workers=%d: overlapping progress calls", workers)
			}
			calls = append(calls, done)
			if total != len(scns) {
				t.Errorf("workers=%d: progress total %d, want %d", workers, total, len(scns))
			}
			time.Sleep(time.Millisecond)
			inside.Store(false)
		}
		d, err := buildDataset(scns, cfg, progress, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(wantJSON) {
			t.Errorf("workers=%d: dataset differs from the sequential build", workers)
		}
		if !slices.Equal(calls, []int{1, 2, 3, 4}) {
			t.Errorf("workers=%d: progress done values %v, want 1..4", workers, calls)
		}

		if _, err := buildDataset(bad, cfg, nil, workers); err == nil || err.Error() != wantErr {
			t.Errorf("workers=%d: err = %v, want %s", workers, err, wantErr)
		}
		if _, err := buildDataset(late, noQoS, nil, workers); err == nil || err.Error() != wantLateErr {
			t.Errorf("workers=%d: err = %v, want %s", workers, err, wantLateErr)
		}
	}
}

// TestTraceSetConcurrentReadsSimulateEachKeyOnce has goroutines read
// overlapping runs of an on-demand set's keys at once: every key must be
// simulated once, every (li, bi) warm-up run once, and every value must
// equal the one a sequential collection reads.
func TestTraceSetConcurrentReadsSimulateEachKeyOnce(t *testing.T) {
	cfg := quickCfg()
	scn := Scenario{AoI: paperScenario(t, "adi").AoI} // every core free
	seq, err := CollectTraces(scn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.fill()
	if err != nil {
		t.Fatal(err)
	}
	n := len(cfg.LevelGrid)
	if got, wantRuns := seq.runs.Load(), int64(len(want)+n*n); got != wantRuns {
		t.Fatalf("sequential collection ran %d simulations, want %d", got, wantRuns)
	}

	var keys []traceKey
	for li := range n {
		for bi := range n {
			for _, core := range seq.FreeCores {
				keys = append(keys, traceKey{core, li, bi})
			}
		}
	}
	ts, err := NewTraceSet(scn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	span := len(keys) / 2
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for g := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range span {
				k := keys[(g*len(keys)/readers+i)%len(keys)]
				p, err := ts.Point(k.core, k.li, k.bi)
				if err != nil || p != want[k] {
					errs <- fmt.Sprintf("reader %d: Point%+v = %+v, %v; want %+v", g, k, p, err, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if got := ts.runs.Load(); got != int64(len(keys)+n*n) {
		t.Errorf("concurrent reads ran %d simulations, want %d (%d points, %d warm-ups)",
			got, len(keys)+n*n, len(keys), n*n)
	}
	if len(ts.points) != len(keys) || len(ts.warm) != n*n {
		t.Errorf("set holds %d points and %d warm fields, want %d and %d",
			len(ts.points), len(ts.warm), len(keys), n*n)
	}
}

// BenchmarkBuildDataset builds the dataset of four random scenarios at
// the quick oracle configuration on GOMAXPROCS workers.
func BenchmarkBuildDataset(b *testing.B) {
	scns, err := RandomScenarios(4, workload.TrainingSet(), 11)
	if err != nil {
		b.Fatal(err)
	}
	cfg := QuickConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDataset(scns, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
