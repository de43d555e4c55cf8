package nn

// kernel.go: the forward and backward passes.
//
// Every accumulator adds its terms in the float64 order of the textbook
// per-sample formulation (forward: bias, then inputs in index order;
// gradients: samples in batch order; delta propagation: outputs in index
// order), and every term is written `acc += a*b` with the operands in that
// formulation's order. Results are therefore bit-identical to it, including
// under any multiply-add fusion the compiler applies to that form. The
// reference itself lives in reference_test.go, and kernel_test.go holds
// the two to bit equality.
//
// Inference (Predict, PredictBatch) is dense and register-blocked: four
// rows against one output, or one row against four outputs, as independent
// accumulators. Its scratch is per call, so a shared *MLP stays read-only.
//
// Training (Train) runs whole minibatches through one preallocated
// workspace, on every core (or an even share of them while other Train
// calls run), in two phases with one join between them:
//
//  1. Row phase, over contiguous row shards. Each row runs its forward
//     pass, its loss and the deltas of every layer. A row's values depend
//     only on that row and the parameters, so the shards share nothing
//     they write.
//  2. Parameter phase, over output-neuron ranges of every layer. Each range
//     sums its gradients over the rows in batch order, then scales them by
//     1/n and applies its Adam update.
//
// No accumulator is split between workers, so the order of every sum, and
// with it every bit of the result, is the same at any worker count. Both
// phases skip the terms whose multiplier is an exact zero. Why that is
// exact, and when it is not attempted, is stated at workspace.step.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// relu is the hidden-layer activation. NaN and −0 pass through unchanged.
func relu(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// forwardDense runs the dense forward pass of xs into ys (OutputDim
// entries each), four rows at a time and the remainder one at a time.
// scratch holds 8×the widest layer at least.
func (m *MLP) forwardDense(xs, ys [][]float64, scratch []float64) {
	r := 0
	for ; r+4 <= len(xs); r += 4 {
		m.forward4(xs[r:r+4], ys[r:r+4], scratch)
	}
	for ; r < len(xs); r++ {
		m.forward1(xs[r], ys[r], scratch)
	}
}

// forward4 runs four rows through every layer, ping-ponging the hidden
// activations between two halves of scratch (8×the widest layer at least).
//
//hot:per-epoch-inference-path
func (m *MLP) forward4(xs, ys [][]float64, scratch []float64) {
	width := len(scratch) / 8
	cur, next := scratch[:4*width], scratch[4*width:8*width]
	x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
	last := len(m.weights) - 1
	for l, w := range m.weights {
		outN := m.sizes[l+1]
		y0, y1, y2, y3 := ys[0], ys[1], ys[2], ys[3]
		if l != last {
			y0, y1, y2, y3 = cur[:outN], cur[width:width+outN],
				cur[2*width:2*width+outN], cur[3*width:3*width+outN]
		}
		dense4(w, m.biases[l], x0, x1, x2, x3, y0, y1, y2, y3, l != last)
		x0, x1, x2, x3 = y0, y1, y2, y3
		cur, next = next, cur
	}
}

// forward1 runs one row through every layer, ping-ponging the hidden
// activations between two halves of scratch (2×the widest layer at least).
//
//hot:per-epoch-inference-path
func (m *MLP) forward1(x, y, scratch []float64) {
	half := len(scratch) / 2
	cur, next := scratch[:half], scratch[half:]
	last := len(m.weights) - 1
	for l, w := range m.weights {
		out := y
		if l != last {
			out = cur[:m.sizes[l+1]]
		}
		dense1(w, m.biases[l], x, out, l != last)
		x = out
		cur, next = next, cur
	}
}

// dense4 computes one layer for four rows, y_r[o] = b[o] + Σ_i w[o,i]·x_r[i]
// (ReLU-clamped when act is set), one output at a time with a row per
// accumulator.
//
//hot:per-epoch-inference-path
func dense4(w, b, x0, x1, x2, x3, y0, y1, y2, y3 []float64, act bool) {
	inN, outN := len(x0), len(b)
	x1, x2, x3 = x1[:inN], x2[:inN], x3[:inN]
	y0, y1, y2, y3 = y0[:outN], y1[:outN], y2[:outN], y3[:outN]
	for o, bo := range b {
		row := w[o*inN : (o+1)*inN]
		s0, s1, s2, s3 := bo, bo, bo, bo
		for i, wi := range row {
			s0 += wi * x0[i]
			s1 += wi * x1[i]
			s2 += wi * x2[i]
			s3 += wi * x3[i]
		}
		if act {
			s0, s1, s2, s3 = relu(s0), relu(s1), relu(s2), relu(s3)
		}
		y0[o], y1[o], y2[o], y3[o] = s0, s1, s2, s3
	}
}

// dense1 computes one layer for one row, four outputs at a time with an
// output per accumulator.
//
//hot:per-epoch-inference-path
func dense1(w, b, x, y []float64, act bool) {
	inN, outN := len(x), len(b)
	y = y[:outN]
	o := 0
	for ; o+4 <= outN; o += 4 {
		r0 := w[o*inN : (o+1)*inN]
		r1 := w[(o+1)*inN : (o+2)*inN]
		r2 := w[(o+2)*inN : (o+3)*inN]
		r3 := w[(o+3)*inN : (o+4)*inN]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for i, v := range x {
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		if act {
			s0, s1, s2, s3 = relu(s0), relu(s1), relu(s2), relu(s3)
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < outN; o++ {
		row := w[o*inN : (o+1)*inN]
		s := b[o]
		for i, v := range x {
			s += row[i] * v
		}
		if act {
			s = relu(s)
		}
		y[o] = s
	}
}

// shardRows is the fewest rows a phase hands each worker. A batch of fewer
// than 2·shardRows rows runs inline on the calling goroutine, where the
// join would cost more than the split saves.
const shardRows = 8

// phase names the work a phase hands each worker.
type phase uint8

const (
	phaseLoss   phase = iota // row shards: forward pass and per-row loss
	phaseRows                // row shards: forward pass, loss and deltas
	phaseParams              // output ranges: gradients, then Adam when set
)

// workspace is the preallocated state of one Train call: flat per-layer
// activations, deltas and index lists for up to rows samples, the gradient
// sums, and the helper goroutines of the two phases.
type workspace struct {
	m       *MLP
	rows    int
	act     [][]float64 // act[l]: rows×sizes[l]; act[0] the inputs, act[L] the outputs
	nz      [][]int32   // nz[l]: rows×sizes[l], row r's index list into act[l] (l < L)
	nzN     [][]int     // nzN[l][r]: length of row r's list in nz[l]
	delta   [][]float64 // delta[l]: rows×sizes[l+1], the deltas of layer l's outputs
	dnz     [][]int32   // dnz[l]: rows×sizes[l+1], row r's index list into delta[l]
	dnzN    [][]int     // dnzN[l][r]: length of row r's list in dnz[l]
	fin     [][]bool    // fin[l][r]: row r's layer-l inputs and deltas are all finite
	rowLoss []float64   // rowLoss[r]: row r's MSE
	all     []int32     // 0, 1, …, widest layer-1
	gw      [][]float64 // summed weight gradients, then their 1/n means
	gb      [][]float64 // summed bias gradients, then their 1/n means

	// pf reports whether every weight and bias is finite. It is checked
	// once at newWorkspace and then folded into every Adam update.
	pf bool
	// opt, when set, makes the parameter phase apply Adam with learning
	// rate lr and bias corrections c1, c2 after summing the gradients.
	opt        *adamState
	lr, c1, c2 float64

	// The running phase's batch: rows idx of (X, Y), or rows base, base+1,
	// … when idx is nil; n rows in all.
	X, Y [][]float64
	idx  []int
	base int
	n    int

	workers int // helpers plus the calling goroutine
	// procs is the worker count asked for. While several Train calls
	// run, each phase takes at most procs divided by their number.
	procs int
	ph    phase // the phase the last bump of gen started
	// gen is bumped by run to start a phase, and by close: the count of
	// bumps in its upper 32 bits and the bump's part count in the lower.
	gen     atomic.Uint64
	left    atomic.Int32 // helpers still inside the current phase
	stop    atomic.Bool  // set by close before its bump of gen
	helpers []helper     // helpers[w-1] is worker w
	ok      []bool       // ok[w]: worker w's updated parameters are all finite
	wg      sync.WaitGroup
}

// helper is the hand-off state of one helper goroutine.
type helper struct {
	asleep atomic.Bool   // the helper is blocked, or about to block, on wake
	wake   chan struct{} // capacity 1: run's token for a sleeping helper
	panic  any           // what the helper's last part panicked with, or nil
}

// spinPolls is how many times an idle helper polls for the next phase
// before it blocks. Phases follow each other within microseconds, while
// waking a blocked goroutine's thread can take tens of them.
const spinPolls = 2000

// newWorkspace sizes a workspace for m and batches of up to rows samples,
// and starts the helpers that bring the phases to up to workers
// goroutines. The caller must close it.
func newWorkspace(m *MLP, rows, workers int) *workspace {
	width := m.width()
	ws := &workspace{
		m:       m,
		rows:    rows,
		rowLoss: make([]float64, rows),
		all:     make([]int32, width),
		pf:      m.paramsFinite(),
		workers: max(1, min(workers, rows/shardRows)),
		procs:   workers,
	}
	for i := range ws.all {
		ws.all[i] = int32(i)
	}
	for l, s := range m.sizes {
		ws.act = append(ws.act, make([]float64, rows*s))
		if l == len(m.weights) {
			break
		}
		out := m.sizes[l+1]
		ws.nz = append(ws.nz, make([]int32, rows*s))
		ws.nzN = append(ws.nzN, make([]int, rows))
		ws.delta = append(ws.delta, make([]float64, rows*out))
		ws.dnz = append(ws.dnz, make([]int32, rows*out))
		ws.dnzN = append(ws.dnzN, make([]int, rows))
		ws.fin = append(ws.fin, make([]bool, rows))
		ws.gw = append(ws.gw, make([]float64, s*out))
		ws.gb = append(ws.gb, make([]float64, out))
	}
	ws.ok = make([]bool, ws.workers)
	ws.helpers = make([]helper, ws.workers-1)
	ws.wg.Add(len(ws.helpers))
	for w := range ws.helpers {
		ws.helpers[w].wake = make(chan struct{}, 1)
		go ws.help(w + 1)
	}
	return ws
}

// close stops the helpers and waits until they have exited.
func (ws *workspace) close() {
	ws.stop.Store(true)
	ws.bump(ws.workers)
	ws.wg.Wait()
}

// bump starts the next phase generation on k parts and wakes the sleeping
// helpers among workers 1 to k-1; the others sit the phase out. A helper
// whose wake buffer still holds a token from an earlier bump needs no
// second one: the token alone makes it check the generation. Only the
// calling goroutine writes gen.
func (ws *workspace) bump(k int) {
	ws.gen.Store((ws.gen.Load()>>32+1)<<32 | uint64(k))
	for w := range ws.helpers[:k-1] {
		if h := &ws.helpers[w]; h.asleep.Swap(false) {
			select {
			case h.wake <- struct{}{}:
			default:
			}
		}
	}
}

// help is helper w's goroutine: it runs its part of every phase it takes
// part in until close. It reads the part count from the generation it
// saw, so a helper that sits a phase out reads nothing run may be
// rewriting for the next one.
func (ws *workspace) help(w int) {
	defer ws.wg.Done()
	h := &ws.helpers[w-1]
	seen := uint64(0)
	for {
		seen = ws.await(h, seen)
		if ws.stop.Load() {
			return
		}
		if k := int(uint32(seen)); w < k {
			h.panic = ws.try(ws.ph, w, k)
			ws.left.Add(-1)
		}
	}
}

// await returns the phase generation once it differs from seen. It polls
// spinPolls times, yielding the processor between polls, and then blocks
// until bump wakes it. A wake token can outlive the bump that sent it, so
// every wake-up checks the generation again.
func (ws *workspace) await(h *helper, seen uint64) uint64 {
	for range spinPolls {
		if g := ws.gen.Load(); g != seen {
			return g
		}
		runtime.Gosched()
	}
	for {
		h.asleep.Store(true)
		if g := ws.gen.Load(); g != seen {
			h.asleep.Store(false)
			return g
		}
		<-h.wake
	}
}

// try runs worker w's part of ph out of k and returns what it panicked
// with, if anything, so that run can re-raise it on the calling goroutine.
func (ws *workspace) try(ph phase, w, k int) (p any) {
	defer func() { p = recover() }()
	ws.part(ph, w, k)
	return nil
}

// parts returns how many workers the current phase runs on: one below
// 2·shardRows rows, otherwise at most one per shardRows rows, and at most
// procs divided by the number of Train calls running, so that concurrent
// trainings share the cores rather than each spinning up all of them.
func (ws *workspace) parts() int {
	share := ws.procs / max(1, int(trainers.Load()))
	return max(1, min(ws.workers, ws.n/shardRows, share))
}

// run runs phase ph on ws.parts() workers, the calling goroutine being
// worker 0, returns once all of them have finished, and returns their
// number. A panic on a helper is re-raised here.
func (ws *workspace) run(ph phase) int {
	k := ws.parts()
	if k == 1 {
		ws.part(ph, 0, 1)
		return 1
	}
	ws.ph = ph
	ws.left.Store(int32(k - 1))
	ws.bump(k)
	ws.part(ph, 0, k)
	for ws.left.Load() != 0 {
		runtime.Gosched()
	}
	for w := range ws.helpers[:k-1] {
		if p := ws.helpers[w].panic; p != nil {
			panic(p)
		}
	}
	return k
}

// part runs worker w's share of phase ph out of k: a contiguous row shard,
// or an output-neuron range of every layer.
func (ws *workspace) part(ph phase, w, k int) {
	if w >= k {
		return
	}
	if ph == phaseParams {
		ws.params(w, k)
		return
	}
	for r := w * ws.n / k; r < (w+1)*ws.n/k; r++ {
		ws.row(r, ph == phaseRows)
	}
}

// step runs the minibatch of rows idx of (X, Y) (len(idx) ≤ ws.rows)
// through the row phase and the parameter phase and returns the summed
// per-sample MSE losses, added in row order after the join. ws.gw and
// ws.gb then hold the summed gradients or, with ws.opt set, their means,
// and the parameters have had their Adam update.
//
// Zero-skipping. A term a·b whose multiplier a is an exact zero is left
// out. When the other factor b is finite, the skipped term is ±0. Adding
// ±0 changes an accumulator only if it holds −0 (round-to-nearest gives
// x + ±0 = x for every other x), and then only the sign of that zero. The
// gradient and delta accumulators start at +0, and a sum is −0 only when
// both operands are, so they never hold −0. A forward accumulator can,
// when its bias is −0, but the sign of a zero activation reaches no
// result: ReLU treats both zeros alike, a zero output moves its error only
// between ±0 (which square to +0), and zeros enter the backward pass only
// as ±0 terms of accumulators that start at +0. So a skip is exact
// whenever the factor it leaves unread is finite, and the kernel skips
// only then:
//
//   - The forward pass skips zero inputs, and propagation skips zero
//     deltas, when ws.pf holds: every weight and bias is finite. Every
//     index list is built in the loop that writes its values, over the
//     non-zero entries when ws.pf holds and over all entries otherwise.
//   - Propagation also skips the inputs whose activation is zero: the
//     reference zeroes their delta after the sum, whatever the sum holds.
//   - The weight gradients of layer l skip row r's zero deltas and zero
//     inputs only when fin[l][r] holds: all of that row's layer-l inputs
//     and deltas are finite, each checked in the loop that writes it.
//     Otherwise the row's terms run over all entries. A bias gradient
//     adds bare deltas, so skipping a zero delta there is always exact.
//
// With a non-finite parameter every list holds all entries, so the same
// loops compute the dense formulation bit for bit, NaN included. The
// parameter phase folds the finiteness of the parameters it updates into
// ws.pf for the next step, and the rows and ranges only partition the
// work: each sum still runs in the reference order.
//
//hot:per-minibatch-training
func (ws *workspace) step(X, Y [][]float64, idx []int) float64 {
	ws.X, ws.Y, ws.idx, ws.base, ws.n = X, Y, idx, 0, len(idx)
	ws.run(phaseRows)
	batchLoss := 0.0
	for _, l := range ws.rowLoss[:ws.n] {
		batchLoss += l
	}
	if ws.opt != nil {
		ws.c1, ws.c2 = ws.opt.advance()
	}
	k := ws.run(phaseParams)
	if ws.opt != nil {
		ws.pf = true
		for _, ok := range ws.ok[:k] {
			ws.pf = ws.pf && ok
		}
	}
	return batchLoss
}

// loss returns the mean MSE of m over d, forwarding it ws.rows rows at
// a time on the row shards of step's forward pass.
//
//hot:per-minibatch-training
func (ws *workspace) loss(d Dataset) float64 {
	ws.X, ws.Y, ws.idx = d.X, d.Y, nil
	total := 0.0
	for start := 0; start < d.Len(); start += ws.rows {
		ws.base, ws.n = start, min(ws.rows, d.Len()-start)
		ws.run(phaseLoss)
		for _, l := range ws.rowLoss[:ws.n] {
			total += l
		}
	}
	return total / float64(d.Len())
}

// row runs batch row r forward and records its loss; with backward set it
// also computes the row's deltas at every layer and their index lists.
//
//hot:per-minibatch-training
func (ws *workspace) row(r int, backward bool) {
	m := ws.m
	k := ws.base + r
	if ws.idx != nil {
		k = ws.idx[r]
	}
	ws.forward(r, ws.X[k])
	L := len(m.weights)
	outN := m.sizes[L]
	nf := float64(outN)
	y := ws.act[L][r*outN : (r+1)*outN]
	t := ws.Y[k][:outN]
	if !backward {
		s := 0.0
		for o := range y {
			diff := y[o] - t[o]
			s += diff * diff
		}
		ws.rowLoss[r] = s / nf
		return
	}

	// The output deltas dL/dy = 2(y-t)/n of the linear output.
	d := ws.delta[L-1][r*outN : (r+1)*outN]
	list := ws.dnz[L-1][r*outN : (r+1)*outN]
	loss, n, chk := 0.0, 0, 0.0
	for o := range y {
		diff := y[o] - t[o]
		loss += diff * diff
		v := 2 * diff / nf
		d[o] = v
		list[n] = int32(o)
		n += keep(v, ws.pf)
		chk += v - v
	}
	ws.rowLoss[r] = loss / nf
	ws.dnzN[L-1][r] = n
	ws.fin[L-1][r] = ws.fin[L-1][r] && chk == 0

	for l := L - 1; l > 0; l-- {
		inN, outN := m.sizes[l], m.sizes[l+1]
		n, fin := propagate(ws.delta[l-1][r*inN:(r+1)*inN], m.weights[l],
			ws.delta[l][r*outN:(r+1)*outN], ws.dnz[l][r*outN:r*outN+ws.dnzN[l][r]],
			ws.act[l][r*inN:(r+1)*inN], ws.nz[l][r*inN:r*inN+ws.nzN[l][r]],
			ws.dnz[l-1][r*inN:(r+1)*inN], ws.pf)
		ws.dnzN[l-1][r] = n
		ws.fin[l-1][r] = ws.fin[l-1][r] && fin
	}
}

// forward copies x into row r of the inputs and runs the row through every
// layer, recording each layer input's index list and whether it is finite.
//
//hot:per-minibatch-training
func (ws *workspace) forward(r int, x []float64) {
	m := ws.m
	in0 := m.sizes[0]
	a := ws.act[0][r*in0 : (r+1)*in0]
	list := ws.nz[0][r*in0 : (r+1)*in0]
	n, chk := 0, 0.0
	for i, v := range x[:in0] {
		a[i] = v
		list[n] = int32(i)
		n += keep(v, ws.pf)
		chk += v - v
	}
	ws.nzN[0][r], ws.fin[0][r] = n, chk == 0

	last := len(m.weights) - 1
	for l, w := range m.weights {
		inN, outN := m.sizes[l], m.sizes[l+1]
		x := ws.act[l][r*inN : (r+1)*inN]
		xl := ws.nz[l][r*inN : r*inN+ws.nzN[l][r]]
		y := ws.act[l+1][r*outN : (r+1)*outN]
		if l == last {
			sparse1(w, m.biases[l], x, xl, y, nil, false)
			continue
		}
		ws.nzN[l+1][r], ws.fin[l+1][r] = sparse1(w, m.biases[l], x, xl, y,
			ws.nz[l+1][r*outN:(r+1)*outN], ws.pf)
	}
}

// params runs worker w's share of the parameter phase out of k: for the
// w-th of k output ranges of every layer, the gradient sums over the
// batch's rows in order and, with ws.opt set, the 1/n scale and the Adam
// update, noting in ok[w] whether the updated parameters are finite.
//
//hot:per-minibatch-training
func (ws *workspace) params(w, k int) {
	m := ws.m
	ok := true
	for l := range m.weights {
		inN, outN := m.sizes[l], m.sizes[l+1]
		o0, o1 := w*outN/k, (w+1)*outN/k
		gw, gb := ws.gw[l], ws.gb[l]
		clearSlice(gw[o0*inN : o1*inN])
		clearSlice(gb[o0:o1])
		for r := 0; r < ws.n; r++ {
			dl, al := ws.all[o0:o1], ws.all[:inN]
			if ws.fin[l][r] {
				dl = within(ws.dnz[l][r*outN:r*outN+ws.dnzN[l][r]], o0, o1)
				al = ws.nz[l][r*inN : r*inN+ws.nzN[l][r]]
			}
			accumulate(gw, gb, ws.delta[l][r*outN:(r+1)*outN], dl, ws.act[l][r*inN:(r+1)*inN], al)
		}
		if s := ws.opt; s != nil {
			inv := 1 / float64(ws.n)
			wr := gw[o0*inN : o1*inN]
			scaleSlice(wr, inv)
			scaleSlice(gb[o0:o1], inv)
			ok = adamUpdate(m.weights[l][o0*inN:o1*inN], wr, s.mw[l][o0*inN:o1*inN],
				s.vw[l][o0*inN:o1*inN], ws.lr, ws.c1, ws.c2) && ok
			ok = adamUpdate(m.biases[l][o0:o1], gb[o0:o1], s.mb[l][o0:o1],
				s.vb[l][o0:o1], ws.lr, ws.c1, ws.c2) && ok
		}
	}
	ws.ok[w] = ok
}

// paramsFinite reports whether every weight and bias is finite, the
// condition for the forward pass to skip zero inputs (see workspace.step).
func (m *MLP) paramsFinite() bool {
	for l, w := range m.weights {
		if !allFinite(w) || !allFinite(m.biases[l]) {
			return false
		}
	}
	return true
}

// allFinite reports whether every entry of v is finite.
func allFinite(v []float64) bool {
	for _, x := range v {
		if x-x != 0 { // NaN for ±Inf and NaN
			return false
		}
	}
	return true
}

// keep returns how far an index list advances past an entry holding v:
// 0 for an exact zero when skip is set, 1 otherwise. List builders store
// every index and advance by keep.
func keep(v float64, skip bool) int {
	if v == 0 && skip {
		return 0
	}
	return 1
}

// within returns the part of the ascending index list that lies in
// [lo, hi).
func within(list []int32, lo, hi int) []int32 {
	return list[firstAtLeast(list, lo):firstAtLeast(list, hi)]
}

// firstAtLeast returns the position of the first entry of the ascending
// list that is at least v, or len(list).
func firstAtLeast(list []int32, v int) int {
	i, j := 0, len(list)
	for i < j {
		h := int(uint(i+j) >> 1)
		if int(list[h]) < v {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// sparse1 computes one layer for one row over the inputs in nz:
// y[o] = b[o] + Σ_{i∈nz} w[o,i]·x[i]. A nil next is the linear output
// layer. Otherwise the layer is hidden: sparse1 applies ReLU, writes to
// next the index list of y (its non-zero entries when skip is set, all
// entries otherwise), and returns the list's length and whether every
// output is finite.
//
//hot:per-minibatch-training
func sparse1(w, b, x []float64, nz []int32, y []float64, next []int32, skip bool) (int, bool) {
	y = y[:len(b)]
	affine(w, b, x, nz, y)
	if next == nil {
		return 0, true
	}
	next = next[:len(y)]
	n, chk := 0, 0.0
	for o, s := range y {
		s = relu(s)
		y[o] = s
		next[n] = int32(o)
		n += keep(s, skip)
		chk += s - s
	}
	return n, chk == 0
}

// affine writes y[o] = b[o] + Σ_{i∈nz} w[o,i]·x[i], four outputs at a
// time.
//
//hot:per-minibatch-training
func affine(w, b, x []float64, nz []int32, y []float64) {
	inN := len(x)
	b = b[:len(y)]
	o := 0
	for ; o+4 <= len(y); o += 4 {
		y[o], y[o+1], y[o+2], y[o+3] = dot4(w[o*inN:(o+1)*inN], w[(o+1)*inN:(o+2)*inN],
			w[(o+2)*inN:(o+3)*inN], w[(o+3)*inN:(o+4)*inN], x, nz, b[o], b[o+1], b[o+2], b[o+3])
	}
	for ; o < len(y); o++ {
		row := w[o*inN : (o+1)*inN]
		s := b[o]
		for _, i := range nz {
			s += row[i] * x[i]
		}
		y[o] = s
	}
}

// dot4, axpy4 and dotT4 hold almost all of training's arithmetic. Each is
// kept out of line so that the register allocator sees its loop alone:
// inlined into a caller, the loop spills its slice pointers and its index
// to the stack. Re-slicing every operand to one length leaves a single
// bounds check per index.

// dot4 returns s_k + Σ_{i∈nz} r_k[i]·x[i] for the four rows r0–r3.
//
//hot:per-minibatch-training
//go:noinline
func dot4(r0, r1, r2, r3, x []float64, nz []int32, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	n := len(x)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	for _, i := range nz {
		v := x[i]
		s0 += r0[i] * v
		s1 += r1[i] * v
		s2 += r2[i] * v
		s3 += r3[i] * v
	}
	return s0, s1, s2, s3
}

// axpy4 adds d_k·a[i] to g_k[i] for the four gradient rows g0–g3 and
// every i in al.
//
//hot:per-minibatch-training
//go:noinline
func axpy4(g0, g1, g2, g3, a []float64, al []int32, d0, d1, d2, d3 float64) {
	n := len(a)
	g0, g1, g2, g3 = g0[:n], g1[:n], g2[:n], g3[:n]
	for _, i := range al {
		v := a[i]
		g0[i] += d0 * v
		g1[i] += d1 * v
		g2[i] += d2 * v
		g3[i] += d3 * v
	}
}

// dotT4 adds Σ_k d_k·r_k[i] to p[i], k in order, for every i in al.
//
//hot:per-minibatch-training
//go:noinline
func dotT4(p, r0, r1, r2, r3 []float64, al []int32, d0, d1, d2, d3 float64) {
	n := len(p)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	for _, i := range al {
		s := p[i]
		s += d0 * r0[i]
		s += d1 * r1[i]
		s += d2 * r2[i]
		s += d3 * r3[i]
		p[i] = s
	}
}

// accumulate adds one sample's gradient terms over the deltas in dl and
// the layer inputs in al: gb[o] += d[o], gw[o,i] += d[o]·a[i].
//
//hot:per-minibatch-training
func accumulate(gw, gb, d []float64, dl []int32, a []float64, al []int32) {
	inN := len(a)
	k := 0
	for ; k+4 <= len(dl); k += 4 {
		o0, o1, o2, o3 := int(dl[k]), int(dl[k+1]), int(dl[k+2]), int(dl[k+3])
		d0, d1, d2, d3 := d[o0], d[o1], d[o2], d[o3]
		gb[o0] += d0
		gb[o1] += d1
		gb[o2] += d2
		gb[o3] += d3
		axpy4(gw[o0*inN:(o0+1)*inN], gw[o1*inN:(o1+1)*inN], gw[o2*inN:(o2+1)*inN],
			gw[o3*inN:(o3+1)*inN], a, al, d0, d1, d2, d3)
	}
	for ; k < len(dl); k++ {
		o := int(dl[k])
		do := d[o]
		gb[o] += do
		g := gw[o*inN : (o+1)*inN]
		for _, i := range al {
			g[i] += do * a[i]
		}
	}
}

// propagate writes to p the deltas of the layer inputs, p[i] = Σ_{o∈dl}
// d[o]·w[o,i] for i in al, zero where the input's ReLU was inactive
// (a[i] ≤ 0) and for every index outside al. It writes to next the index
// list of p (its non-zero entries when skip is set, the entries in al
// otherwise) and returns the list's length and whether p is all finite.
//
//hot:per-minibatch-training
func propagate(p, w, d []float64, dl []int32, a []float64, al []int32, next []int32, skip bool) (int, bool) {
	inN := len(a)
	clearSlice(p)
	k := 0
	for ; k+4 <= len(dl); k += 4 {
		o0, o1, o2, o3 := int(dl[k]), int(dl[k+1]), int(dl[k+2]), int(dl[k+3])
		d0, d1, d2, d3 := d[o0], d[o1], d[o2], d[o3]
		dotT4(p, w[o0*inN:(o0+1)*inN], w[o1*inN:(o1+1)*inN], w[o2*inN:(o2+1)*inN],
			w[o3*inN:(o3+1)*inN], al, d0, d1, d2, d3)
	}
	for ; k < len(dl); k++ {
		o := int(dl[k])
		do := d[o]
		row := w[o*inN : (o+1)*inN]
		for _, i := range al {
			p[i] += do * row[i]
		}
	}
	next = next[:len(al)]
	n, chk := 0, 0.0
	for _, i := range al {
		v := p[i]
		if a[i] <= 0 {
			v = 0
		}
		p[i] = v
		next[n] = i
		n += keep(v, skip)
		chk += v - v
	}
	return n, chk == 0
}
