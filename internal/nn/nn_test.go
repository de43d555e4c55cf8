package nn

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// loss returns the mean MSE of the model over the dataset. It panics if an
// input's dimension does not match the network's input layer. It runs the
// training workspace's loss, the one early stopping reads.
func (m *MLP) loss(d Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	for _, x := range d.X {
		m.checkInput(x)
	}
	ws := newWorkspace(m, min(d.Len(), TrainConfig{}.defaults().BatchSize), 1)
	defer ws.close()
	return ws.loss(d)
}

func TestNewMLPShapes(t *testing.T) {
	m := NewMLP([]int{21, 64, 64, 8}, 1)
	if m.InputDim() != 21 || m.OutputDim() != 8 {
		t.Fatalf("dims = %d,%d", m.InputDim(), m.OutputDim())
	}
	want := 21*64 + 64 + 64*64 + 64 + 64*8 + 8
	if got := m.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
	out := m.Predict(make([]float64, 21))
	if len(out) != 8 {
		t.Errorf("output len = %d", len(out))
	}
}

func TestNewMLPPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("single layer", func() { NewMLP([]int{3}, 0) })
	mustPanic("zero width", func() { NewMLP([]int{3, 0, 2}, 0) })
	mustPanic("bad input dim", func() { NewMLP([]int{3, 2}, 0).Predict([]float64{1}) })
}

func TestSeededInitDeterministic(t *testing.T) {
	a := NewMLP([]int{4, 8, 2}, 7)
	b := NewMLP([]int{4, 8, 2}, 7)
	c := NewMLP([]int{4, 8, 2}, 8)
	x := []float64{0.1, -0.2, 0.3, 0.4}
	pa, pb, pc := a.Predict(x), b.Predict(x), c.Predict(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different networks")
		}
	}
	same := true
	for i := range pa {
		if pa[i] != pc[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical networks")
	}
}

// TestBackpropGradientCheck verifies the training kernel's gradients
// against finite differences.
func TestBackpropGradientCheck(t *testing.T) {
	m := NewMLP([]int{3, 5, 2}, 3)
	x := []float64{0.5, -1.2, 0.8}
	y := []float64{0.3, -0.7}

	ws := newWorkspace(m, 1, 1)
	defer ws.close()
	ws.step([][]float64{x}, [][]float64{y}, []int{0})
	gw, gb := ws.gw, ws.gb

	loss := func() float64 {
		out := m.Predict(x)
		s := 0.0
		for o := range out {
			d := out[o] - y[o]
			s += d * d
		}
		return s / float64(len(out))
	}
	const h = 1e-6
	check := func(param []float64, grad []float64, name string) {
		for i := range param {
			orig := param[i]
			param[i] = orig + h
			lp := loss()
			param[i] = orig - h
			lm := loss()
			param[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-grad[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", name, i, grad[i], num)
			}
		}
	}
	check(m.weights[0], gw[0], "w0")
	check(m.weights[1], gw[1], "w1")
	check(m.biases[0], gb[0], "b0")
	check(m.biases[1], gb[1], "b1")
}

// synthDataset builds a learnable nonlinear mapping.
func synthDataset(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var d Dataset
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		y := []float64{
			math.Max(0, x[0]) + 0.5*x[1],
			x[0]*x[1] - x[2],
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

func TestTrainingLearns(t *testing.T) {
	full := synthDataset(800, 1)
	train, val := full.Split(0.2, 2)
	m := NewMLP([]int{3, 32, 32, 2}, 3)
	before := m.loss(val)
	res, err := m.Train(train, val, TrainConfig{MaxEpochs: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	after := m.loss(val)
	if after >= before/4 {
		t.Errorf("training barely improved: %g -> %g", before, after)
	}
	if after > 0.05 {
		t.Errorf("final validation loss %g, want < 0.05", after)
	}
	if res.Epochs == 0 || len(res.ValHistory) != res.Epochs {
		t.Errorf("inconsistent result bookkeeping: %+v", res)
	}
}

func TestEarlyStoppingRestoresBest(t *testing.T) {
	full := synthDataset(300, 5)
	train, val := full.Split(0.3, 6)
	m := NewMLP([]int{3, 16, 2}, 7)
	res, err := m.Train(train, val, TrainConfig{MaxEpochs: 500, Patience: 5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	got := m.loss(val)
	if math.Abs(got-res.BestValLoss) > 1e-9 {
		t.Errorf("model loss %g does not match best val loss %g (restore failed)",
			got, res.BestValLoss)
	}
	if !res.StoppedEarly && res.Epochs == 500 {
		t.Log("training ran to MaxEpochs; early stopping not exercised (acceptable but unusual)")
	}
}

func TestTrainValidatesShapes(t *testing.T) {
	m := NewMLP([]int{3, 4, 2}, 0)
	bad := Dataset{X: [][]float64{{1, 2}}, Y: [][]float64{{1, 2}}}
	if _, err := m.Train(bad, Dataset{}, TrainConfig{MaxEpochs: 1}); err == nil {
		t.Error("expected error for wrong input dim")
	}
	badY := Dataset{X: [][]float64{{1, 2, 3}}, Y: [][]float64{{1}}}
	if _, err := m.Train(badY, Dataset{}, TrainConfig{MaxEpochs: 1}); err == nil {
		t.Error("expected error for wrong target dim")
	}
	if _, err := m.Train(Dataset{}, Dataset{}, TrainConfig{MaxEpochs: 1}); err == nil {
		t.Error("expected error for empty training set")
	}
	mismatch := Dataset{X: [][]float64{{1, 2, 3}}, Y: nil}
	if _, err := m.Train(mismatch, Dataset{}, TrainConfig{MaxEpochs: 1}); err == nil {
		t.Error("expected error for X/Y length mismatch")
	}
}

func TestSplitPartitions(t *testing.T) {
	d := synthDataset(100, 9)
	train, val := d.Split(0.25, 10)
	if train.Len()+val.Len() != 100 {
		t.Fatalf("split sizes %d+%d != 100", train.Len(), val.Len())
	}
	if val.Len() != 25 {
		t.Errorf("val size = %d, want 25", val.Len())
	}
	// Deterministic given seed.
	t2, _ := d.Split(0.25, 10)
	for i := range train.X {
		if &train.X[i][0] != &t2.X[i][0] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := NewMLP([]int{21, 64, 64, 64, 64, 8}, 11)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back MLP
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 21)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	a, b := m.Predict(x), back.Predict(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs after round trip", i)
		}
	}
	// The artifact takes the one-pass decoder, and re-encodes to itself.
	if _, ok := decodeCanonical(string(data)); !ok {
		t.Fatal("encoded model is not on the one-pass decode path")
	}
	again, err := back.MarshalJSON()
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-encoding changed the bytes (err %v)", err)
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	var m MLP
	cases := []string{
		`{"sizes":[2],"weights":[],"biases":[]}`,
		`{"sizes":[2,3],"weights":[[1,2,3]],"biases":[[1,2,3]]}`, // wrong weight count
		`{"sizes":[2,3],"weights":[[1,2,3,4,5,6]],"biases":[[1]]}`,
		`{"sizes":[2,0,3],"weights":[[],[]],"biases":[[],[0,0,0]]}`, // zero width
		`{"sizes":[-2,0],"weights":[[]],"biases":[[]]}`,             // negative width
		`not json`,
	}
	for _, c := range cases {
		if err := json.Unmarshal([]byte(c), &m); err == nil {
			t.Errorf("accepted malformed model: %s", c)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewMLP([]int{2, 3, 1}, 1)
	c := m.Clone()
	m.weights[0][0] += 100
	x := []float64{1, 1}
	if m.Predict(x)[0] == c.Predict(x)[0] {
		t.Error("clone shares storage with original")
	}
}

func TestGridSearchFindsCapacity(t *testing.T) {
	// A linear target: every topology should fit it; grid search must
	// return all candidates with finite losses and a valid best.
	full := synthDataset(200, 13)
	train, val := full.Split(0.3, 14)
	res, err := GridSearch(train, val, 3, 2,
		[]int{1, 2}, []int{4, 8},
		TrainConfig{MaxEpochs: 20, Patience: 5, Seed: 15}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 4 {
		t.Fatalf("candidates = %d, want 4", len(res.Candidates))
	}
	bestSeen := math.Inf(1)
	for _, c := range res.Candidates {
		if math.IsNaN(c.ValLoss) || math.IsInf(c.ValLoss, 0) {
			t.Errorf("candidate (%d,%d): bad loss %g", c.Depth, c.Width, c.ValLoss)
		}
		if c.ValLoss < bestSeen {
			bestSeen = c.ValLoss
		}
	}
	if res.Best.ValLoss != bestSeen {
		t.Errorf("Best.ValLoss = %g, want %g", res.Best.ValLoss, bestSeen)
	}
}

func TestGridSearchRejectsBadGrid(t *testing.T) {
	if _, err := GridSearch(Dataset{}, Dataset{}, 3, 2, nil, []int{4}, TrainConfig{}, 0); err == nil {
		t.Error("empty depth grid accepted")
	}
	if _, err := GridSearch(Dataset{}, Dataset{}, 3, 2, []int{0}, []int{4}, TrainConfig{}, 0); err == nil {
		t.Error("zero depth accepted")
	}
}

func TestPaperTopology(t *testing.T) {
	sizes := PaperTopology(21, 8)
	want := []int{21, 64, 64, 64, 64, 8}
	if len(sizes) != len(want) {
		t.Fatalf("len = %d", len(sizes))
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("sizes[%d] = %d, want %d", i, sizes[i], want[i])
		}
	}
}

func TestPredictDeterministicProperty(t *testing.T) {
	m := NewMLP([]int{4, 8, 3}, 21)
	f := func(a, b, c, d float64) bool {
		x := []float64{clip(a), clip(b), clip(c), clip(d)}
		p, q := m.Predict(x), m.Predict(x)
		for i := range p {
			if p[i] != q[i] || math.IsNaN(p[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clip(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	if x > 10 {
		return 10
	}
	if x < -10 {
		return -10
	}
	return x
}
