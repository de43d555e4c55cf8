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
// Training (Train, Loss) runs whole minibatches through one preallocated
// workspace and skips the terms whose multiplier is an exact zero. Why that
// is exact, and when it is not attempted, is stated at workspace.step.

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

// workspace is the preallocated state of one Train (or Loss) call: flat
// per-layer activation buffers and index lists for up to rows samples,
// and the deltas of the layer being back-propagated.
type workspace struct {
	rows  int
	width int         // widest layer
	act   [][]float64 // act[l]: rows×sizes[l]; act[0] the inputs, act[L] the outputs
	nz    [][]int32   // nz[l]: rows×sizes[l], row r's index list into act[l] (l < L)
	nzN   [][]int     // nzN[l][r]: length of row r's list in nz[l]
	delta []float64   // rows×width: deltas of the current layer's outputs
	prev  []float64   // rows×width: deltas of its inputs, being computed
	dnz   []int32     // width: index list into one row of delta
	all   []int32     // 0, 1, …, width-1
}

// newWorkspace sizes a workspace for the topology sizes and batches of up
// to rows samples.
func newWorkspace(sizes []int, rows int) *workspace {
	width := 0
	for _, s := range sizes {
		width = max(width, s)
	}
	ws := &workspace{
		rows:  rows,
		width: width,
		delta: make([]float64, rows*width),
		prev:  make([]float64, rows*width),
		dnz:   make([]int32, width),
		all:   make([]int32, width),
	}
	for i := range ws.all {
		ws.all[i] = int32(i)
	}
	for l, s := range sizes {
		ws.act = append(ws.act, make([]float64, rows*s))
		if l+1 < len(sizes) {
			ws.nz = append(ws.nz, make([]int32, rows*s))
			ws.nzN = append(ws.nzN, make([]int, rows))
		}
	}
	return ws
}

// step overwrites gw/gb with the summed gradients of the rows idx of
// (X, Y) and returns their summed per-sample MSE losses: the forward pass,
// the loss and the backward pass of one minibatch (len(idx) ≤ ws.rows).
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
// as ±0 terms of accumulators that start at +0. So losses and gradients stay bit-identical as long as
// every b is finite, and the kernel checks exactly that:
//
//   - the parameters, once per minibatch, before the forward pass skips
//     zero inputs;
//   - the batch's activations, before the backward pass skips zero deltas
//     in the weight gradients;
//   - each layer's deltas, before the backward pass skips zero activations
//     in that layer's weight gradients.
//
// Delta propagation multiplies deltas by the checked weights, and it skips
// ReLU-masked inputs outright because their delta is zeroed anyway. A
// non-finite batch loss implies a non-finite output delta, which the last
// check catches. Once a check fails, the index lists are built over all
// entries for the rest of the minibatch, and the same loops compute the
// dense formulation bit for bit, NaN included.
//
//hot:per-minibatch-training
func (ws *workspace) step(m *MLP, X, Y [][]float64, idx []int, gw, gb [][]float64) float64 {
	n := len(idx)
	in0 := m.sizes[0]
	for r, k := range idx {
		copy(ws.act[0][r*in0:(r+1)*in0], X[k])
	}
	skip := m.paramsFinite()
	ws.forward(m, n, skip)
	skip = skip && ws.actsFinite(m, n)

	// Loss and the output deltas dL/dy = 2(y-t)/n of the linear output.
	L := len(m.weights)
	outN := m.sizes[L]
	nf := float64(outN)
	out := ws.act[L]
	batchLoss := 0.0
	for r, k := range idx {
		y := out[r*outN : (r+1)*outN]
		t := Y[k][:outN]
		d := ws.delta[r*ws.width : r*ws.width+outN]
		loss := 0.0
		for o := range y {
			diff := y[o] - t[o]
			loss += diff * diff
			d[o] = 2 * diff / nf
		}
		batchLoss += loss / nf
	}

	for l := L - 1; l >= 0; l-- {
		inN, outN := m.sizes[l], m.sizes[l+1]
		clearSlice(gw[l])
		clearSlice(gb[l])
		skip = skip && rowsFinite(ws.delta, n, ws.width, outN)
		for r := 0; r < n; r++ {
			d := ws.delta[r*ws.width : r*ws.width+outN]
			dl := ws.dnz[:indexList(ws.dnz, d, skip)]
			a := ws.act[l][r*inN : (r+1)*inN]
			al := ws.all[:inN]
			if skip {
				al = ws.nz[l][r*inN : r*inN+ws.nzN[l][r]]
			}
			accumulate(gw[l], gb[l], d, dl, a, al)
			if l > 0 {
				propagate(ws.prev[r*ws.width:r*ws.width+inN], m.weights[l], d, dl, a, al)
			}
		}
		ws.delta, ws.prev = ws.prev, ws.delta
	}
	return batchLoss
}

// loss returns the mean MSE of m over d, forwarding it ws.rows rows at a
// time with the zero-skipping forward pass of step.
//
//hot:per-minibatch-training
func (ws *workspace) loss(m *MLP, d Dataset) float64 {
	skip := m.paramsFinite()
	in0, outN := m.sizes[0], m.OutputDim()
	out := ws.act[len(m.weights)]
	total := 0.0
	for start := 0; start < d.Len(); start += ws.rows {
		n := min(ws.rows, d.Len()-start)
		for r := 0; r < n; r++ {
			copy(ws.act[0][r*in0:(r+1)*in0], d.X[start+r])
		}
		ws.forward(m, n, skip)
		for r := 0; r < n; r++ {
			y := out[r*outN : (r+1)*outN]
			t := d.Y[start+r][:outN]
			s := 0.0
			for o := range y {
				diff := y[o] - t[o]
				s += diff * diff
			}
			total += s / float64(outN)
		}
	}
	return total / float64(d.Len())
}

// forward runs the first n rows of act[0] through every layer, recording
// each row's index list of the layer inputs it multiplied: the non-zero
// entries when skip is set, all entries otherwise.
//
//hot:per-minibatch-training
func (ws *workspace) forward(m *MLP, n int, skip bool) {
	last := len(m.weights) - 1
	for l, w := range m.weights {
		inN, outN := m.sizes[l], m.sizes[l+1]
		x, y, nz, nzN := ws.act[l], ws.act[l+1], ws.nz[l], ws.nzN[l]
		for r := 0; r < n; r++ {
			xr := x[r*inN : (r+1)*inN]
			list := nz[r*inN : (r+1)*inN]
			nzN[r] = indexList(list, xr, skip)
			sparse1(w, m.biases[l], xr, list[:nzN[r]], y[r*outN:(r+1)*outN], l != last)
		}
	}
}

// actsFinite reports whether the layer inputs of the first n rows (every
// activation a backward term multiplies) are finite.
func (ws *workspace) actsFinite(m *MLP, n int) bool {
	for l := range m.weights {
		if !allFinite(ws.act[l][:n*m.sizes[l]]) {
			return false
		}
	}
	return true
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

// rowsFinite reports whether the first cols entries of each of the n rows
// of v (row stride stride) are finite.
func rowsFinite(v []float64, n, stride, cols int) bool {
	for r := 0; r < n; r++ {
		if !allFinite(v[r*stride : r*stride+cols]) {
			return false
		}
	}
	return true
}

// indexList writes to list the indices of v's non-zero entries when skip
// is set, or of all its entries otherwise, and returns their count.
func indexList(list []int32, v []float64, skip bool) int {
	list = list[:len(v)]
	k := 0
	for i, x := range v {
		// Branch-free: the store is always in bounds (k ≤ i), and the
		// conditional increment compiles to a conditional move.
		list[k] = int32(i)
		inc := 1
		if x == 0 && skip {
			inc = 0
		}
		k += inc
	}
	return k
}

// sparse1 computes one layer for one row over the inputs in nz, four
// outputs at a time: y[o] = b[o] + Σ_{i∈nz} w[o,i]·x[i].
//
//hot:per-minibatch-training
func sparse1(w, b, x []float64, nz []int32, y []float64, act bool) {
	inN, outN := len(x), len(b)
	y = y[:outN]
	o := 0
	for ; o+4 <= outN; o += 4 {
		r0 := w[o*inN : (o+1)*inN]
		r1 := w[(o+1)*inN : (o+2)*inN]
		r2 := w[(o+2)*inN : (o+3)*inN]
		r3 := w[(o+3)*inN : (o+4)*inN]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for _, i := range nz {
			v := x[i]
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
		for _, i := range nz {
			s += row[i] * x[i]
		}
		if act {
			s = relu(s)
		}
		y[o] = s
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
		g0 := gw[o0*inN : (o0+1)*inN]
		g1 := gw[o1*inN : (o1+1)*inN]
		g2 := gw[o2*inN : (o2+1)*inN]
		g3 := gw[o3*inN : (o3+1)*inN]
		for _, i := range al {
			v := a[i]
			g0[i] += d0 * v
			g1[i] += d1 * v
			g2[i] += d2 * v
			g3[i] += d3 * v
		}
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
// (a[i] ≤ 0) and for every index outside al.
//
//hot:per-minibatch-training
func propagate(p, w, d []float64, dl []int32, a []float64, al []int32) {
	inN := len(a)
	clearSlice(p)
	k := 0
	for ; k+4 <= len(dl); k += 4 {
		o0, o1, o2, o3 := int(dl[k]), int(dl[k+1]), int(dl[k+2]), int(dl[k+3])
		d0, d1, d2, d3 := d[o0], d[o1], d[o2], d[o3]
		r0 := w[o0*inN : (o0+1)*inN]
		r1 := w[o1*inN : (o1+1)*inN]
		r2 := w[o2*inN : (o2+1)*inN]
		r3 := w[o3*inN : (o3+1)*inN]
		for _, i := range al {
			s := p[i]
			s += d0 * r0[i]
			s += d1 * r1[i]
			s += d2 * r2[i]
			s += d3 * r3[i]
			p[i] = s
		}
	}
	for ; k < len(dl); k++ {
		o := int(dl[k])
		do := d[o]
		row := w[o*inN : (o+1)*inN]
		for _, i := range al {
			p[i] += do * row[i]
		}
	}
	for _, i := range al {
		if a[i] <= 0 {
			p[i] = 0
		}
	}
}
