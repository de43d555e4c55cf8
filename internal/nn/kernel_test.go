package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
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
	// A −Inf weight masks hidden unit 0 of the second layer in every row
	// (the first layer's unit 0 is kept active), so its delta is a masked
	// zero: propagated densely through the −Inf weight it is NaN, which a
	// pass that skipped the zero delta would miss.
	{"masked-inf-weight", func(m *MLP, d Dataset) {
		m.biases[0][0] = 1e3
		m.weights[1][0] = math.Inf(-1)
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

// checkStep compares one minibatch of the training kernel on workers
// goroutines with the per-sample reference: loss, weight and bias
// gradients, and the workspace's validation loss.
func checkStep(t *testing.T, name string, m *MLP, d Dataset, idx []int, workers int) {
	t.Helper()
	rw, rb := make([][]float64, len(m.weights)), make([][]float64, len(m.weights))
	for l := range m.weights {
		rw[l], rb[l] = make([]float64, len(m.weights[l])), make([]float64, len(m.biases[l]))
	}
	ws := newWorkspace(m, len(idx), workers)
	defer ws.close()
	for l := range ws.gw {
		for i := range ws.gw[l] {
			ws.gw[l][i] = 7 // step must overwrite, not accumulate
		}
	}
	got := ws.step(d.X, d.Y, idx)
	want := m.refBatchGrad(d, idx, rw, rb)
	if !sameBits(got, want) {
		t.Fatalf("%s: batch loss %v, want %v", name, got, want)
	}
	for l := range m.weights {
		if s := diffSlices(ws.gw[l], rw[l]); s != "" {
			t.Fatalf("%s: gw[%d]%s", name, l, s)
		}
		if s := diffSlices(ws.gb[l], rb[l]); s != "" {
			t.Fatalf("%s: gb[%d]%s", name, l, s)
		}
	}
	if l1, l2 := ws.loss(d), m.refLoss(d); !sameBits(l1, l2) {
		t.Fatalf("%s: loss %v, want %v", name, l1, l2)
	}
}

// workerCounts returns the worker counts the parallel tests run at: 1, 2,
// 3 and GOMAXPROCS.
func workerCounts() []int {
	counts := []int{1, 2, 3}
	if p := runtime.GOMAXPROCS(0); p > 3 {
		counts = append(counts, p)
	}
	return counts
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
				checkStep(t, fmt.Sprintf("%v/sparsity=%g/n=%d", sizes, sparsity, n), m, d, idx, 1)
			}
		}
	}
	for _, c := range edgeCases {
		for _, sizes := range [][]int{{21, 64, 64, 8}, {5, 21, 8, 5}} {
			d := sparseDataset(6, sizes[0], sizes[len(sizes)-1], 0.6, 3)
			m := NewMLP(sizes, 4)
			c.edit(m, d)
			checkStep(t, fmt.Sprintf("%s/%v", c.name, sizes), m, d, []int{0, 1, 2, 3, 4, 5}, 1)
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
		checkTrain(t, c, int64(ci), runtime.GOMAXPROCS(0))
	}
}

// checkTrain runs one case through train on workers goroutines and
// through the reference training loop, and requires the same final
// parameters and the same TrainResult, loss histories included, bit for
// bit.
func checkTrain(t *testing.T, c trainCase, seed int64, workers int) {
	t.Helper()
	name := fmt.Sprintf("%s/%v/rows=%d/sparsity=%g/workers=%d", c.name, c.sizes, c.rows, c.sparsity, workers)
	full := sparseDataset(c.rows+c.rows/4+1, c.sizes[0], c.sizes[len(c.sizes)-1], c.sparsity, seed)
	train := Dataset{X: full.X[:c.rows], Y: full.Y[:c.rows]}
	val := Dataset{X: full.X[c.rows:], Y: full.Y[c.rows:]}
	m := NewMLP(c.sizes, seed)
	if c.edit != nil {
		c.edit(m, train)
	}
	ref := m.Clone()
	got, err := m.train(train, val, c.cfg, workers)
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

// TestStepMatchesReferenceAtEveryWorkerCount holds the two-phase step to
// the per-sample reference at 1, 2, 3 and GOMAXPROCS workers: one batch
// below the inline threshold, the smallest split batch, a prime-sized
// batch no worker count divides and a full 128-row paper batch, over
// widths that split into ranges of every remainder, and every edge case,
// with the faulty row placed wherever the shuffle puts it.
func TestStepMatchesReferenceAtEveryWorkerCount(t *testing.T) {
	type stepCase struct {
		sizes []int
		ns    []int
	}
	ns := []int{2*shardRows - 1, 2 * shardRows, 37}
	cases := []stepCase{
		{PaperTopology(21, 8), append(ns, 128)},
		{[]int{21, 8, 8}, ns},
		{[]int{21, 128, 32, 8}, ns},
		{[]int{21, 21, 5}, ns},
		{[]int{5, 21, 8, 5}, ns},
		{[]int{3, 1}, ns},
	}
	for _, workers := range workerCounts() {
		for ci, c := range cases {
			for _, sparsity := range []float64{0, 0.6} {
				n := c.ns[len(c.ns)-1]
				d := sparseDataset(n, c.sizes[0], c.sizes[len(c.sizes)-1], sparsity, int64(ci))
				m := NewMLP(c.sizes, int64(ci))
				m.MapParams(func(v float64) float64 { return v + 0.01 })
				for _, n := range c.ns {
					idx := rand.New(rand.NewSource(int64(n))).Perm(d.Len())[:n]
					checkStep(t, fmt.Sprintf("%v/sparsity=%g/n=%d/workers=%d", c.sizes, sparsity, n, workers),
						m, d, idx, workers)
				}
			}
		}
		for _, c := range edgeCases {
			for _, sizes := range [][]int{{21, 64, 64, 8}, {5, 21, 8, 5}} {
				d := sparseDataset(37, sizes[0], sizes[len(sizes)-1], 0.6, 3)
				m := NewMLP(sizes, 4)
				c.edit(m, d)
				idx := rand.New(rand.NewSource(int64(workers))).Perm(d.Len())
				checkStep(t, fmt.Sprintf("%s/%v/workers=%d", c.name, sizes, workers), m, d, idx, workers)
			}
		}
	}
}

// TestTrainMatchesReferenceAtEveryWorkerCount runs whole training runs at
// 1, 2, 3 and GOMAXPROCS workers against the reference: minibatches of 37,
// 37 and the 16-row remainder, every edge case, and a batch size below the
// inline threshold.
func TestTrainMatchesReferenceAtEveryWorkerCount(t *testing.T) {
	split := TrainConfig{MaxEpochs: 3, Patience: 2, BatchSize: 37, Seed: 11}
	cases := []trainCase{
		{name: "paper", sizes: PaperTopology(21, 8), rows: 90, sparsity: 0.6, cfg: split},
		{name: "dense-odd", sizes: []int{5, 21, 8, 5}, rows: 90, cfg: split},
		{name: "inline", sizes: []int{21, 16, 16, 8}, rows: 40, sparsity: 0.6,
			cfg: TrainConfig{MaxEpochs: 3, BatchSize: 2*shardRows - 1, Seed: 12}},
	}
	for _, c := range edgeCases {
		cases = append(cases, trainCase{name: c.name, sizes: []int{21, 16, 16, 8}, rows: 90,
			sparsity: 0.6, cfg: split, edit: c.edit})
	}
	for _, workers := range workerCounts() {
		for ci, c := range cases {
			checkTrain(t, c, int64(ci), workers)
		}
	}
}

// TestStepTracksParamsFinite runs Adam steps at every worker count and
// requires ws.pf to agree with the parameters after each: true after a
// finite update, false once a NaN target has made the update non-finite.
// With one layer the NaN reaches only the last output's parameters, which
// lie in the last worker's range.
func TestStepTracksParamsFinite(t *testing.T) {
	for _, workers := range workerCounts() {
		m := NewMLP([]int{21, 8}, 1)
		d := sparseDataset(37, 21, 8, 0.6, 1)
		idx := rand.New(rand.NewSource(2)).Perm(d.Len())
		ws := newWorkspace(m, d.Len(), workers)
		ws.opt, ws.lr = newAdamState(m), 0.01
		ws.step(d.X, d.Y, idx)
		if !ws.pf || !m.paramsFinite() {
			t.Fatalf("workers=%d: after a finite step pf=%v, params finite=%v", workers, ws.pf, m.paramsFinite())
		}
		d.Y[5][7] = math.NaN()
		ws.step(d.X, d.Y, idx)
		if ws.pf || m.paramsFinite() {
			t.Fatalf("workers=%d: after a NaN step pf=%v, params finite=%v", workers, ws.pf, m.paramsFinite())
		}
		ws.close()
	}
}

// TestStepWakesSleepingHelpers lets every helper stop polling and block
// between steps, and requires each following step to wake them and still
// match the reference.
func TestStepWakesSleepingHelpers(t *testing.T) {
	m := NewMLP([]int{21, 16, 8}, 1)
	d := sparseDataset(37, 21, 8, 0.6, 1)
	idx := rand.New(rand.NewSource(3)).Perm(d.Len())
	ws := newWorkspace(m, d.Len(), 3)
	defer ws.close()
	rw, rb := make([][]float64, len(m.weights)), make([][]float64, len(m.weights))
	for l := range m.weights {
		rw[l], rb[l] = make([]float64, len(m.weights[l])), make([]float64, len(m.biases[l]))
	}
	want := m.refBatchGrad(d, idx, rw, rb)
	for round := 0; round < 3; round++ {
		for w := range ws.helpers {
			for i := 0; !ws.helpers[w].asleep.Load(); i++ {
				if i == 5000 {
					t.Fatalf("round %d: helper %d never went to sleep", round, w+1)
				}
				time.Sleep(time.Millisecond)
			}
		}
		if got := ws.step(d.X, d.Y, idx); !sameBits(got, want) {
			t.Fatalf("round %d: batch loss %v, want %v", round, got, want)
		}
		if s := diffParams(&MLP{weights: ws.gw, biases: ws.gb}, &MLP{weights: rw, biases: rb}); s != "" {
			t.Fatalf("round %d: gradients %s", round, s)
		}
	}
}

// TestTrainStopsItsWorkers checks that no helper outlives close or Train:
// afterwards the goroutine count is back at or below where it started
// (a goroutine of an earlier test may end meanwhile).
func TestTrainStopsItsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewMLP([]int{21, 16, 8}, 1)
	ws := newWorkspace(m, 64, 3)
	if len(ws.helpers) != 2 {
		t.Fatalf("workspace on 3 workers has %d helpers, want 2", len(ws.helpers))
	}
	ws.close()
	settled(t, "closed workspace", before)
	d := sparseDataset(80, 21, 8, 0.6, 1)
	if _, err := m.train(d, d, TrainConfig{MaxEpochs: 2, BatchSize: 64}, 3); err != nil {
		t.Fatal(err)
	}
	settled(t, "after train on 3 workers", before)
	if _, err := m.Train(d, d, TrainConfig{MaxEpochs: 2, BatchSize: 64}); err != nil {
		t.Fatal(err)
	}
	settled(t, "after Train", before)
}

// settled fails unless the goroutine count falls to limit or below. A
// helper has finished its work once close returns, but the runtime may
// count it for a moment longer, so the count is polled for up to a second.
func settled(t *testing.T, what string, limit int) {
	t.Helper()
	got := runtime.NumGoroutine()
	for i := 0; i < 1000 && got > limit; i++ {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > limit {
		t.Fatalf("%s: %d goroutines, want at most %d", what, got, limit)
	}
}

// TestStepPanicOnHelperReachesCaller gives the last row shard a target row
// too short to read: the helper's panic must surface from step on the
// calling goroutine, and the workspace must still close.
func TestStepPanicOnHelperReachesCaller(t *testing.T) {
	m := NewMLP([]int{21, 16, 8}, 1)
	d := sparseDataset(32, 21, 8, 0.6, 1)
	d.Y[31] = []float64{1, 2, 3}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	ws := newWorkspace(m, d.Len(), 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("step did not panic")
			}
		}()
		ws.step(d.X, d.Y, idx)
	}()
	ws.close()
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
// 60 % zero features) through a warm workspace on GOMAXPROCS workers: the
// training kernel's steady state, which must not allocate on one worker
// (inline) or several (split).
func BenchmarkNNTrainStep(b *testing.B) {
	m := NewMLP(PaperTopology(21, 8), 1)
	d := sparseDataset(128, 21, 8, 0.6, 2)
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	ws := newWorkspace(m, len(idx), runtime.GOMAXPROCS(0))
	defer ws.close()
	ws.step(d.X, d.Y, idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.step(d.X, d.Y, idx)
	}
}

// BenchmarkNNTrain is one online-shaped retraining: a warm-started paper
// topology fit on 130 rows with a 15 % validation split for 30 epochs,
// the online learner's default schedule with early stopping off.
func BenchmarkNNTrain(b *testing.B) {
	incumbent := NewMLP(PaperTopology(21, 8), 1)
	d := sparseDataset(130, 21, 8, 0.6, 2)
	train, val := d.Split(0.15, 3)
	if _, err := incumbent.Train(train, val, TrainConfig{MaxEpochs: 2, Seed: 4}); err != nil {
		b.Fatal(err)
	}
	cfg := TrainConfig{LR0: 2e-3, LRDecay: 0.97, MaxEpochs: 30, Patience: 31, Seed: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := incumbent.Clone().Train(train, val, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPredictBatchAllocatesOnlyItsResult pins PredictBatch to two
// allocations, the result's row headers and its values: the activation
// scratch comes from a pool.
func TestPredictBatchAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	m := NewMLP(PaperTopology(21, 8), 1)
	xs := make([][]float64, 5) // one blocked group of four and one single row
	for r := range xs {
		xs[r] = make([]float64, 21)
		for i := range xs[r] {
			xs[r][i] = float64(r*21+i) * 0.01
		}
	}
	m.PredictBatch(xs)
	if allocs := testing.AllocsPerRun(100, func() { m.PredictBatch(xs) }); allocs != 2 {
		t.Fatalf("PredictBatch allocates %.0f times, want 2 (the result only)", allocs)
	}
}
