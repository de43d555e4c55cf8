package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sparseDataset draws n rows of standard-normal inputs, each entry an exact
// zero with probability sparsity, and standard-normal targets.
func sparseDataset(n, in, out int, sparsity float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var d Dataset
	for r := 0; r < n; r++ {
		x := make([]float64, in)
		for i := range x {
			if rng.Float64() >= sparsity {
				x[i] = rng.NormFloat64()
			}
		}
		y := make([]float64, out)
		for o := range y {
			y[o] = rng.NormFloat64()
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

// sameBits reports whether a and b are the same float64: equal bits, or
// both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// diffSlices returns a description of the first entry where got and want
// are not the same float64, or "".
func diffSlices(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return fmt.Sprintf("[%d] = %v (%#x), want %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// diffParams compares two networks' parameters entry by entry.
func diffParams(got, want *MLP) string {
	for l := range want.weights {
		if d := diffSlices(got.weights[l], want.weights[l]); d != "" {
			return fmt.Sprintf("weights[%d]%s", l, d)
		}
		if d := diffSlices(got.biases[l], want.biases[l]); d != "" {
			return fmt.Sprintf("biases[%d]%s", l, d)
		}
	}
	return ""
}

// nasTopologies returns the full NAS grid of the design-time pipeline
// (depths 1–6 × widths 8–128) plus widths that are not multiples of 4, so
// the kernels' remainder loops run.
func nasTopologies() [][]int {
	var out [][]int
	for _, depth := range []int{1, 2, 3, 4, 6} {
		for _, width := range []int{8, 16, 32, 64, 128} {
			sizes := []int{21}
			for i := 0; i < depth; i++ {
				sizes = append(sizes, width)
			}
			out = append(out, append(sizes, 8))
		}
	}
	return append(out,
		[]int{21, 21, 5},
		[]int{5, 21, 8, 5},
		[]int{21, 5, 21, 8},
		[]int{3, 1},
	)
}

// edgeCase edits a network or its data into a case the zero-skipping
// argument (workspace.step) has to get right: non-finite values the checks
// must catch, and zeros of both signs.
type edgeCase struct {
	name string
	edit func(m *MLP, d Dataset)
}

var edgeCases = []edgeCase{
	{"nan-weight", func(m *MLP, d Dataset) { m.weights[1][3] = math.NaN() }},
	{"inf-weight", func(m *MLP, d Dataset) { m.weights[0][2] = math.Inf(1) }},
	// The NaN weight only ever meets a zero input: the dense pass is NaN
	// everywhere, a pass that skipped the zero would be finite.
	{"nan-weight-zero-input", func(m *MLP, d Dataset) {
		m.weights[0][1] = math.NaN()
		for _, x := range d.X {
			x[1] = 0
		}
	}},
	{"inf-input", func(m *MLP, d Dataset) { d.X[0][1] = math.Inf(-1) }},
	// Every first-layer unit sees −Inf and is ReLU-masked to zero, so the
	// loss stays finite while the dense gradient 0·Inf is NaN.
	{"masked-inf-input", func(m *MLP, d Dataset) {
		in := m.sizes[0]
		for o := 0; o < m.sizes[1]; o++ {
			m.weights[0][o*in] = 1
		}
		d.X[0][0] = math.Inf(-1)
	}},
	// −0 biases over all-zero inputs of both signs: a dense sum of a +0
	// term gives +0 where the skipping one keeps −0. The sign of a zero
	// activation must not reach any loss or gradient.
	{"negative-zero-bias", func(m *MLP, d Dataset) {
		for l := range m.biases {
			for o := range m.biases[l] {
				m.biases[l][o] = math.Copysign(0, -1)
			}
		}
		for i := range m.weights[0] {
			m.weights[0][i] = math.Abs(m.weights[0][i])
		}
		for r, x := range d.X {
			for i := range x {
				x[i] = math.Copysign(0, float64((r+i)%2)-0.5)
			}
			d.Y[r][0] = 0
		}
	}},
	// Huge last-layer weights on tiny activations keep the output and the
	// loss finite while the deltas propagated from it overflow.
	{"overflowing-delta", func(m *MLP, d Dataset) {
		L := len(m.weights) - 1
		for i := range m.weights[L] {
			m.weights[L][i] = 1e308
		}
		for i := range m.weights[0] {
			m.weights[0][i] *= 1e-300
		}
	}},
}

// checkStep compares one minibatch of the training kernel with the
// per-sample reference: loss, weight and bias gradients.
func checkStep(t *testing.T, name string, m *MLP, d Dataset, idx []int) {
	t.Helper()
	gw, gb := make([][]float64, len(m.weights)), make([][]float64, len(m.weights))
	rw, rb := make([][]float64, len(m.weights)), make([][]float64, len(m.weights))
	for l := range m.weights {
		gw[l], rw[l] = make([]float64, len(m.weights[l])), make([]float64, len(m.weights[l]))
		gb[l], rb[l] = make([]float64, len(m.biases[l])), make([]float64, len(m.biases[l]))
		for i := range gw[l] {
			gw[l][i] = 7 // step must overwrite, not accumulate
		}
	}
	got := newWorkspace(m.sizes, len(idx)).step(m, d.X, d.Y, idx, gw, gb)
	want := m.refBatchGrad(d, idx, rw, rb)
	if !sameBits(got, want) {
		t.Fatalf("%s: batch loss %v, want %v", name, got, want)
	}
	for l := range m.weights {
		if s := diffSlices(gw[l], rw[l]); s != "" {
			t.Fatalf("%s: gw[%d]%s", name, l, s)
		}
		if s := diffSlices(gb[l], rb[l]); s != "" {
			t.Fatalf("%s: gb[%d]%s", name, l, s)
		}
	}
	if l1, l2 := m.loss(d), m.refLoss(d); !sameBits(l1, l2) {
		t.Fatalf("%s: Loss %v, want %v", name, l1, l2)
	}
}

// TestStepMatchesReference holds the minibatch kernel to bit equality with
// the per-sample reference over the NAS grid, odd widths, batch sizes 1–9,
// dense and sparse inputs, and the edge cases.
func TestStepMatchesReference(t *testing.T) {
	for ti, sizes := range nasTopologies() {
		for _, sparsity := range []float64{0, 0.6} {
			d := sparseDataset(12, sizes[0], sizes[len(sizes)-1], sparsity, int64(ti))
			m := NewMLP(sizes, int64(ti))
			// Non-zero biases, some negative, so ReLUs mask on both sides.
			m.MapParams(func(v float64) float64 { return v + 0.01 })
			for n := 1; n <= 9; n++ {
				idx := rand.New(rand.NewSource(int64(n))).Perm(d.Len())[:n]
				checkStep(t, fmt.Sprintf("%v/sparsity=%g/n=%d", sizes, sparsity, n), m, d, idx)
			}
		}
	}
	for _, c := range edgeCases {
		for _, sizes := range [][]int{{21, 64, 64, 8}, {5, 21, 8, 5}} {
			d := sparseDataset(6, sizes[0], sizes[len(sizes)-1], 0.6, 3)
			m := NewMLP(sizes, 4)
			c.edit(m, d)
			checkStep(t, fmt.Sprintf("%s/%v", c.name, sizes), m, d, []int{0, 1, 2, 3, 4, 5})
		}
	}
}

// trainCase is one Train run compared with the reference.
type trainCase struct {
	name     string
	sizes    []int
	rows     int
	sparsity float64
	cfg      TrainConfig
	edit     func(m *MLP, d Dataset)
}

// TestTrainMatchesReference runs Train and the reference training loop
// side by side and requires the same final parameters and the same
// TrainResult, loss histories included, bit for bit.
func TestTrainMatchesReference(t *testing.T) {
	base := TrainConfig{MaxEpochs: 4, BatchSize: 8, Seed: 5}
	var cases []trainCase
	for _, sizes := range nasTopologies() {
		for _, sparsity := range []float64{0, 0.6} {
			cases = append(cases, trainCase{name: "grid", sizes: sizes, rows: 20,
				sparsity: sparsity, cfg: base})
		}
	}
	for rows := 1; rows <= base.BatchSize+1; rows++ {
		cases = append(cases, trainCase{name: "rows", sizes: []int{21, 8, 5}, rows: rows,
			sparsity: 0.6, cfg: base})
	}
	paper := PaperTopology(21, 8)
	cases = append(cases,
		trainCase{name: "default-batch", sizes: paper, rows: 129, sparsity: 0.6,
			cfg: TrainConfig{MaxEpochs: 3, Seed: 6}},
		trainCase{name: "early-stop", sizes: []int{21, 16, 8}, rows: 40, sparsity: 0.6,
			cfg: TrainConfig{MaxEpochs: 200, Patience: 2, BatchSize: 8, Seed: 8, LR0: 0.5}},
	)
	for _, c := range edgeCases {
		cases = append(cases, trainCase{name: c.name, sizes: []int{21, 16, 16, 8}, rows: 30,
			sparsity: 0.6, cfg: TrainConfig{MaxEpochs: 4, Patience: 2, BatchSize: 8, Seed: 9}, edit: c.edit})
	}

	for ci, c := range cases {
		name := fmt.Sprintf("%s/%v/rows=%d/sparsity=%g", c.name, c.sizes, c.rows, c.sparsity)
		full := sparseDataset(c.rows+c.rows/4+1, c.sizes[0], c.sizes[len(c.sizes)-1], c.sparsity, int64(ci))
		train := Dataset{X: full.X[:c.rows], Y: full.Y[:c.rows]}
		val := Dataset{X: full.X[c.rows:], Y: full.Y[c.rows:]}
		m := NewMLP(c.sizes, int64(ci))
		if c.edit != nil {
			c.edit(m, train)
		}
		ref := m.Clone()
		got, err := m.Train(train, val, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := ref.refTrain(train, val, c.cfg)
		if s := diffParams(m, ref); s != "" {
			t.Fatalf("%s: final %s", name, s)
		}
		if got.Epochs != want.Epochs || got.StoppedEarly != want.StoppedEarly ||
			!sameBits(got.TrainLoss, want.TrainLoss) || !sameBits(got.BestValLoss, want.BestValLoss) {
			t.Fatalf("%s: result %+v, want %+v", name, got, want)
		}
		if s := diffSlices(got.TrainHistory, want.TrainHistory); s != "" {
			t.Fatalf("%s: TrainHistory%s", name, s)
		}
		if s := diffSlices(got.ValHistory, want.ValHistory); s != "" {
			t.Fatalf("%s: ValHistory%s", name, s)
		}
	}
}

// TestPredictBatchMatchesReference checks the blocked inference kernels
// row by row against the reference forward pass, across batch sizes that
// exercise the four-row blocks and their remainders.
func TestPredictBatchMatchesReference(t *testing.T) {
	for ti, sizes := range nasTopologies() {
		m := NewMLP(sizes, int64(ti))
		m.MapParams(func(v float64) float64 { return v - 0.01 })
		d := sparseDataset(11, sizes[0], sizes[len(sizes)-1], 0.3, int64(ti))
		if ti == 0 {
			m.weights[0][5] = math.NaN()
		}
		for n := 0; n <= d.Len(); n++ {
			got := m.PredictBatch(d.X[:n])
			if len(got) != n {
				t.Fatalf("%v: PredictBatch(%d rows) returned %d", sizes, n, len(got))
			}
			for r := range got {
				want := m.refPredict(d.X[r])
				if s := diffSlices(got[r], want); s != "" {
					t.Fatalf("%v: PredictBatch(%d rows) row %d%s", sizes, n, r, s)
				}
				if s := diffSlices(m.Predict(d.X[r]), want); s != "" {
					t.Fatalf("%v: Predict row %d%s", sizes, r, s)
				}
			}
		}
	}
}

// BenchmarkNNTrainStep is one minibatch of the paper topology (128 rows,
// 60 % zero features) through a warm workspace: the training kernel's
// steady state, which must not allocate.
func BenchmarkNNTrainStep(b *testing.B) {
	m := NewMLP(PaperTopology(21, 8), 1)
	d := sparseDataset(128, 21, 8, 0.6, 2)
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	gw, gb := make([][]float64, len(m.weights)), make([][]float64, len(m.weights))
	for l := range m.weights {
		gw[l] = make([]float64, len(m.weights[l]))
		gb[l] = make([]float64, len(m.biases[l]))
	}
	ws := newWorkspace(m.sizes, len(idx))
	ws.step(m, d.X, d.Y, idx, gw, gb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.step(m, d.X, d.Y, idx, gw, gb)
	}
}
