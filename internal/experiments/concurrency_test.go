package experiments

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestPipelineConcurrentAccess hammers the Pipeline's lazily-built shared
// state from many goroutines at once. The artifacts are seeded by one
// sequential pipeline first, so the concurrent one exercises the mutex
// around cache loading rather than minutes of oracle search; the point of
// the test is the race detector, which `make race` runs over this package.
func TestPipelineConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	seed := NewPipeline(miniScale())
	seed.ArtifactsDir = dir
	if _, err := seed.Dataset(); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Models(); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.QTables(); err != nil {
		t.Fatal(err)
	}

	p := NewPipeline(miniScale())
	p.ArtifactsDir = dir
	spec, ok := workload.ByName("adi")
	if !ok {
		t.Fatal("adi missing from catalog")
	}

	const workers = 8
	errs := make(chan error, workers*4)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Dataset(); err != nil {
				errs <- err
			}
			if _, err := p.Manager("TOP-IL", 0); err != nil {
				errs <- err
			}
			if _, err := p.Manager("TOP-RL", 0); err != nil {
				errs <- err
			}
			if peak := p.PeakIPS(spec); peak <= 0 {
				errs <- errNonPositive("PeakIPS")
			}
			if little := p.littleMaxIPS(spec); little <= 0 {
				errs <- errNonPositive("LittleMaxIPS")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	d1, err := p.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := seed.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if d1.Len() != d2.Len() {
		t.Fatalf("concurrent pipeline loaded %d examples, seeder built %d", d1.Len(), d2.Len())
	}
}

type errNonPositive string

func (e errNonPositive) Error() string { return string(e) + " returned a non-positive value" }

// TestRunMatrixConcurrentCells hammers the executor with cells that exercise
// the full per-cell path — Manager construction (shared models/Q-tables
// behind the pipeline mutex), engine runs, progress reporting — at several
// worker counts, and asserts the reduced values never change. Like
// TestPipelineConcurrentAccess this mainly exists for the race detector.
func TestRunMatrixConcurrentCells(t *testing.T) {
	dir := t.TempDir()
	seed := NewPipeline(miniScale())
	seed.ArtifactsDir = dir
	if err := seed.Warm(); err != nil {
		t.Fatal(err)
	}

	spec, ok := workload.ByName("adi")
	if !ok {
		t.Fatal("adi missing from catalog")
	}
	spec.TotalInstr = 1e18

	run := func(workers int) []float64 {
		p := NewPipeline(miniScale())
		p.ArtifactsDir = dir
		p.Workers = workers
		p.Progress = func(string) {} // exercise the serialized callback
		if err := p.Warm(); err != nil {
			t.Fatal(err)
		}
		var specs []RunSpec[float64]
		for i := 0; i < 12; i++ {
			tech := "TOP-IL"
			if i%2 == 1 {
				tech = "TOP-RL"
			}
			specs = append(specs, RunSpec[float64]{
				Tag: tech,
				Run: func() (float64, error) {
					mgr, err := p.Manager(tech, 0)
					if err != nil {
						return 0, err
					}
					e := p.newEngine(fmt.Sprintf("hammer/%s/%d", tech, i), true, int64(i))
					e.AddJob(workload.Job{Spec: spec, QoS: 1e8})
					r := e.Run(mgr, 2)
					return r.AvgTemp, nil
				},
			})
		}
		cells, err := RunMatrix(p, "hammer", specs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(cells))
		for i, c := range cells {
			out[i] = c.Value
		}
		return out
	}

	base := run(1)
	for _, workers := range []int{4, 8} {
		got := run(workers)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: cell %d = %v, sequential run produced %v",
					workers, i, got[i], base[i])
			}
		}
	}
}
