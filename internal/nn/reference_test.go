package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// The textbook per-sample formulation of the forward and backward passes,
// kept as the differential reference for the kernels in kernel.go: every
// layer allocates its activations, every term of every dot product is
// computed, one sample at a time. The kernels must reproduce these results
// bit for bit (kernel_test.go).

// refPredict runs a forward pass for a single input.
func (m *MLP) refPredict(x []float64) []float64 {
	if len(x) != m.sizes[0] {
		panic(fmt.Sprintf("nn: input dim %d, want %d", len(x), m.sizes[0]))
	}
	act := append([]float64(nil), x...)
	last := len(m.weights) - 1
	for l := range m.weights {
		act = m.refLayerForward(l, act, l != last)
	}
	return act
}

// refLayerForward computes layer l's output; relu selects the activation.
func (m *MLP) refLayerForward(l int, in []float64, relu bool) []float64 {
	inN, outN := m.sizes[l], m.sizes[l+1]
	w, b := m.weights[l], m.biases[l]
	out := make([]float64, outN)
	for o := 0; o < outN; o++ {
		sum := b[o]
		row := w[o*inN : (o+1)*inN]
		for i, v := range in {
			sum += row[i] * v
		}
		if relu && sum < 0 {
			sum = 0
		}
		out[o] = sum
	}
	return out
}

// refForwardTrace runs a forward pass retaining all activations for
// backprop. acts[0] is the input, acts[L] the output.
func (m *MLP) refForwardTrace(x []float64) [][]float64 {
	acts := make([][]float64, len(m.sizes))
	acts[0] = x
	last := len(m.weights) - 1
	for l := range m.weights {
		acts[l+1] = m.refLayerForward(l, acts[l], l != last)
	}
	return acts
}

// refBackprop computes parameter gradients for one sample, accumulating
// into gw/gb, and returns the sample's MSE loss.
func (m *MLP) refBackprop(x, target []float64, gw, gb [][]float64) float64 {
	acts := m.refForwardTrace(x)
	out := acts[len(acts)-1]
	n := float64(len(out))
	// delta = dL/d(pre-activation) at the output (linear): 2(y-t)/n.
	delta := make([]float64, len(out))
	loss := 0.0
	for o := range out {
		d := out[o] - target[o]
		loss += d * d
		delta[o] = 2 * d / n
	}
	loss /= n

	for l := len(m.weights) - 1; l >= 0; l-- {
		inN := m.sizes[l]
		in := acts[l]
		w := m.weights[l]
		for o, d := range delta {
			gb[l][o] += d
			row := gw[l][o*inN : (o+1)*inN]
			for i, v := range in {
				row[i] += d * v
			}
		}
		if l == 0 {
			break
		}
		// Propagate delta through layer l and the ReLU of layer l-1's
		// output (acts[l] are post-ReLU: zero entries had negative
		// pre-activations, so their gradient is zero).
		prev := make([]float64, inN)
		for o, d := range delta {
			row := w[o*inN : (o+1)*inN]
			for i := range prev {
				prev[i] += d * row[i]
			}
		}
		for i := range prev {
			if acts[l][i] <= 0 {
				prev[i] = 0
			}
		}
		delta = prev
	}
	return loss
}

// refLoss returns the mean MSE of the model over the dataset.
func (m *MLP) refLoss(d Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	total := 0.0
	for i := range d.X {
		out := m.refPredict(d.X[i])
		s := 0.0
		for o := range out {
			diff := out[o] - d.Y[i][o]
			s += diff * diff
		}
		total += s / float64(len(out))
	}
	return total / float64(d.Len())
}

// refBatchGrad clears gw/gb, accumulates the gradients of the rows idx of
// d one sample at a time, and returns the summed per-sample losses: the
// reference for workspace.step.
func (m *MLP) refBatchGrad(d Dataset, idx []int, gw, gb [][]float64) float64 {
	for l := range gw {
		clearSlice(gw[l])
		clearSlice(gb[l])
	}
	loss := 0.0
	for _, i := range idx {
		loss += m.refBackprop(d.X[i], d.Y[i], gw, gb)
	}
	return loss
}

// apply performs one Adam update of every parameter given averaged
// gradients.
func (s *adamState) apply(m *MLP, gw, gb [][]float64, lr float64) {
	c1, c2 := s.advance()
	for l := range m.weights {
		adamUpdate(m.weights[l], gw[l], s.mw[l], s.vw[l], lr, c1, c2)
		adamUpdate(m.biases[l], gb[l], s.mb[l], s.vb[l], lr, c1, c2)
	}
}

// refTrain is Train over the reference kernels: same shuffling, Adam,
// clipping, decay and early stopping, with refBatchGrad and refLoss in
// place of the workspace.
func (m *MLP) refTrain(train, val Dataset, cfg TrainConfig) TrainResult {
	cfg = cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	adam := newAdamState(m)
	gw := make([][]float64, len(m.weights))
	gb := make([][]float64, len(m.weights))
	for l := range m.weights {
		gw[l] = make([]float64, len(m.weights[l]))
		gb[l] = make([]float64, len(m.biases[l]))
	}

	best := m.Clone()
	bestVal := math.Inf(1)
	sinceBest := 0
	res := TrainResult{BestValLoss: bestVal}

	order := make([]int, train.Len())
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		lr := cfg.LR0 * math.Pow(cfg.LRDecay, float64(epoch))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		epochLoss := 0.0
		for start := 0; start < len(order); start += cfg.BatchSize {
			endIdx := min(start+cfg.BatchSize, len(order))
			batchLoss := m.refBatchGrad(train, order[start:endIdx], gw, gb)
			n := float64(endIdx - start)
			for l := range gw {
				scaleSlice(gw[l], 1/n)
				scaleSlice(gb[l], 1/n)
			}
			adam.apply(m, gw, gb, lr)
			epochLoss += batchLoss
		}
		epochLoss /= float64(train.Len())

		valLoss := epochLoss
		if val.Len() > 0 {
			valLoss = m.refLoss(val)
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
	return res
}
