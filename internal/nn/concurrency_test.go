package nn

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentPredict hammers one shared model with Predict and
// PredictBatch from many goroutines and checks every result against a
// single-threaded baseline. The batches have odd sizes, so both the
// four-row blocks and the one-row remainder run. Run with -race: it is the
// executable form of the package's concurrency guarantee (forward passes
// are read-only), which the serve batcher depends on.
func TestConcurrentPredict(t *testing.T) {
	m := NewMLP([]int{21, 64, 64, 8}, 1)
	rng := rand.New(rand.NewSource(2))
	const nInputs = 32
	inputs := make([][]float64, nInputs)
	for i := range inputs {
		inputs[i] = make([]float64, 21)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}
	want := make([][]float64, nInputs)
	for i, x := range inputs {
		want[i] = m.Predict(x)
	}

	const goroutines = 16
	const rounds = 50
	var wg sync.WaitGroup
	errCh := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % nInputs
				var rows []int
				var got [][]float64
				if r%2 == 0 {
					rows = []int{i}
					got = [][]float64{m.Predict(inputs[i])}
				} else {
					var batch [][]float64
					for k := 0; k < 1+2*((g+r)%5); k++ { // 1, 3, 5, 7 or 9 rows
						rows = append(rows, (i+k)%nInputs)
						batch = append(batch, inputs[(i+k)%nInputs])
					}
					got = m.PredictBatch(batch)
				}
				for k, j := range rows {
					for o := range want[j] {
						if got[k][o] != want[j][o] {
							select {
							case errCh <- "concurrent Predict diverged from baseline":
							default:
							}
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if msg, ok := <-errCh; ok {
		t.Fatal(msg)
	}
}

// TestConcurrentTrainsMatchLoneTrains runs two trainings at once, as the
// experiments' model matrix does, on GOMAXPROCS and on 4 workers each,
// and requires each to end with the parameters and result it reaches
// alone, and both to be counted while they run.
func TestConcurrentTrainsMatchLoneTrains(t *testing.T) {
	d := sparseDataset(150, 21, 8, 0.6, 5)
	train, val := d.Split(0.2, 1)
	cfg := TrainConfig{MaxEpochs: 10, BatchSize: 64, Seed: 3}
	for _, workers := range []int{runtime.GOMAXPROCS(0), 4} {
		var lone, both [2]*MLP
		var loneRes, bothRes [2]TrainResult
		var errs [2]error
		for i := range lone {
			lone[i] = NewMLP(PaperTopology(21, 8), int64(i+1))
			both[i] = lone[i].Clone()
			if loneRes[i], errs[i] = lone[i].train(train, val, cfg, workers); errs[i] != nil {
				t.Fatal(errs[i])
			}
		}
		var wg sync.WaitGroup
		for i := range both {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bothRes[i], errs[i] = both[i].train(train, val, cfg, workers)
			}()
		}
		finished := make(chan struct{})
		go func() {
			wg.Wait()
			close(finished)
		}()
		peak := int32(0)
	poll:
		for {
			select {
			case <-finished:
				break poll
			default:
				peak = max(peak, trainers.Load())
				runtime.Gosched()
			}
		}
		if peak != 2 || trainers.Load() != 0 {
			t.Errorf("workers=%d: %d Train calls counted at most while two ran, %d after", workers, peak, trainers.Load())
		}
		for i := range both {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if s := diffParams(both[i], lone[i]); s != "" {
				t.Errorf("workers=%d: training %d run concurrently: %s", workers, i, s)
			}
			if s := diffSlices(bothRes[i].ValHistory, loneRes[i].ValHistory); s != "" {
				t.Errorf("workers=%d: training %d run concurrently: ValHistory%s", workers, i, s)
			}
		}
	}
}

// TestPartsShareTheCores checks a step's part count while other Train
// calls run: procs divided by their number, at least one, and never more
// than the batch allows.
func TestPartsShareTheCores(t *testing.T) {
	ws := newWorkspace(NewMLP([]int{21, 8}, 1), 128, 4)
	defer ws.close()
	defer trainers.Store(trainers.Load())
	for _, c := range []struct{ running, n, want int }{
		{0, 128, 4}, {1, 128, 4}, {2, 128, 2}, {3, 128, 1}, {5, 128, 1},
		{1, 16, 2}, {2, 16, 2}, {1, 15, 1},
	} {
		trainers.Store(int32(c.running))
		ws.n = c.n
		if got := ws.parts(); got != c.want {
			t.Errorf("%d Train calls running, %d rows: %d parts, want %d", c.running, c.n, got, c.want)
		}
	}
}
