package nn

import (
	"math/rand"
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
