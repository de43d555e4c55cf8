package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"

	"repro/internal/telemetry"
)

// trainEpochs counts training epochs process-wide (see forwardPasses in
// nn.go for the lazy-binding rationale).
var trainEpochs = telemetry.LazyCounter{Name: "nn_train_epochs_total",
	Help: "MLP training epochs completed"}

// trainers counts the Train calls running in the process; their steps
// share the cores between them (see workspace.parts).
var trainers atomic.Int32

// Dataset is a supervised learning dataset: X[i] is a feature vector,
// Y[i] the target vector.
type Dataset struct {
	X [][]float64
	Y [][]float64
}

// Len returns the number of examples.
func (d Dataset) Len() int { return len(d.X) }

// Validate checks shape consistency against the given dimensions.
func (d Dataset) Validate(inDim, outDim int) error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("nn: %d inputs vs %d targets", len(d.X), len(d.Y))
	}
	for i := range d.X {
		if len(d.X[i]) != inDim {
			return fmt.Errorf("nn: example %d: input dim %d, want %d", i, len(d.X[i]), inDim)
		}
		if len(d.Y[i]) != outDim {
			return fmt.Errorf("nn: example %d: target dim %d, want %d", i, len(d.Y[i]), outDim)
		}
	}
	return nil
}

// Split partitions the dataset into training and validation parts after a
// seeded shuffle; frac is the validation fraction.
func (d Dataset) Split(frac float64, seed int64) (train, val Dataset) {
	idx := rand.New(rand.NewSource(seed)).Perm(d.Len())
	nVal := int(float64(d.Len()) * frac)
	for k, i := range idx {
		if k < nVal {
			val.X = append(val.X, d.X[i])
			val.Y = append(val.Y, d.Y[i])
		} else {
			train.X = append(train.X, d.X[i])
			train.Y = append(train.Y, d.Y[i])
		}
	}
	return train, val
}

// TrainConfig holds the hyper-parameters of the paper: Adam with an
// exponentially decaying learning rate 0.01·0.95^epoch, MSE loss, early
// stopping with a patience of 20 epochs.
type TrainConfig struct {
	LR0       float64 // initial learning rate (default 0.01)
	LRDecay   float64 // per-epoch decay factor (default 0.95)
	MaxEpochs int     // default 200
	Patience  int     // early-stopping patience in epochs (default 20)
	BatchSize int     // default 128
	Seed      int64   // shuffling seed
}

// defaults fills unset fields.
func (c TrainConfig) defaults() TrainConfig {
	if c.LR0 == 0 {
		c.LR0 = 0.01
	}
	if c.LRDecay == 0 {
		c.LRDecay = 0.95
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 200
	}
	if c.Patience == 0 {
		c.Patience = 20
	}
	if c.BatchSize == 0 {
		c.BatchSize = 128
	}
	return c
}

// TrainResult reports the outcome of a training run.
type TrainResult struct {
	Epochs       int
	TrainLoss    float64 // last epoch's training loss
	BestValLoss  float64
	StoppedEarly bool
	TrainHistory []float64
	ValHistory   []float64
}

// adamState holds the Adam moment estimates mirroring the model parameters.
type adamState struct {
	mw, vw [][]float64
	mb, vb [][]float64
	t      int
}

func newAdamState(m *MLP) *adamState {
	s := &adamState{}
	for l := range m.weights {
		s.mw = append(s.mw, make([]float64, len(m.weights[l])))
		s.vw = append(s.vw, make([]float64, len(m.weights[l])))
		s.mb = append(s.mb, make([]float64, len(m.biases[l])))
		s.vb = append(s.vb, make([]float64, len(m.biases[l])))
	}
	return s
}

const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// advance starts the next Adam step and returns its bias corrections.
func (s *adamState) advance() (c1, c2 float64) {
	s.t++
	return 1 - math.Pow(adamBeta1, float64(s.t)), 1 - math.Pow(adamBeta2, float64(s.t))
}

// adamUpdate applies one Adam step with bias corrections c1, c2 to the
// parameters p, given their averaged gradients g and moment estimates mo,
// ve, and reports whether every updated parameter is finite.
func adamUpdate(p, g, mo, ve []float64, lr, c1, c2 float64) bool {
	chk := 0.0
	for i := range p {
		mo[i] = adamBeta1*mo[i] + (1-adamBeta1)*g[i]
		ve[i] = adamBeta2*ve[i] + (1-adamBeta2)*g[i]*g[i]
		mh := mo[i] / c1
		vh := ve[i] / c2
		p[i] -= lr * mh / (math.Sqrt(vh) + adamEps)
		chk += p[i] - p[i]
	}
	return chk == 0
}

// Train fits the model on train, monitoring val for early stopping. The
// model is left with the parameters of the best validation epoch. Each
// minibatch runs on up to GOMAXPROCS goroutines divided by the number of
// Train calls running, at least one; the goroutines exit before Train
// returns, and the result is the same at any count.
func (m *MLP) Train(train, val Dataset, cfg TrainConfig) (TrainResult, error) {
	return m.train(train, val, cfg, runtime.GOMAXPROCS(0))
}

// train is Train on up to workers goroutines.
func (m *MLP) train(train, val Dataset, cfg TrainConfig, workers int) (TrainResult, error) {
	cfg = cfg.defaults()
	if err := train.Validate(m.InputDim(), m.OutputDim()); err != nil {
		return TrainResult{}, err
	}
	if err := val.Validate(m.InputDim(), m.OutputDim()); err != nil {
		return TrainResult{}, err
	}
	if train.Len() == 0 {
		return TrainResult{}, fmt.Errorf("nn: empty training set")
	}

	trainers.Add(1)
	defer trainers.Add(-1)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ws := newWorkspace(m, min(cfg.BatchSize, max(train.Len(), val.Len())), workers)
	defer ws.close()
	ws.opt = newAdamState(m)

	best := m.Clone()
	bestVal := math.Inf(1)
	sinceBest := 0
	res := TrainResult{BestValLoss: bestVal}

	order := make([]int, train.Len())
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		trainEpochs.Inc()
		ws.lr = cfg.LR0 * math.Pow(cfg.LRDecay, float64(epoch))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		epochLoss := 0.0
		for start := 0; start < len(order); start += cfg.BatchSize {
			epochLoss += ws.step(train.X, train.Y, order[start:min(start+cfg.BatchSize, len(order))])
		}
		epochLoss /= float64(train.Len())

		valLoss := epochLoss
		if val.Len() > 0 {
			valLoss = ws.loss(val)
		}
		res.TrainHistory = append(res.TrainHistory, epochLoss)
		res.ValHistory = append(res.ValHistory, valLoss)
		res.Epochs = epoch + 1
		res.TrainLoss = epochLoss

		if valLoss < bestVal {
			bestVal = valLoss
			best.CopyFrom(m)
			sinceBest = 0
		} else {
			sinceBest++
			if sinceBest >= cfg.Patience {
				res.StoppedEarly = true
				break
			}
		}
	}
	m.CopyFrom(best)
	res.BestValLoss = bestVal
	return res, nil
}

func clearSlice(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

func scaleSlice(s []float64, f float64) {
	for i := range s {
		s[i] *= f
	}
}
