package thermal

// This file implements the precomputed RC propagator kernel.
//
// Derivation. One forward-Euler substep of length h is, per node i,
//
//	T'_i = T_i + h/C_i · (u_i + gAmb_i·(TAmb − T_i) + Σ_j g_ij·(T_j − T_i))
//
// which in matrix form is the affine update
//
//	T' = A·T + B·u + c
//	A_ij = h·g_ij/C_i (i≠j),  A_ii = 1 − h·(gAmb_i + Σ_j g_ij)/C_i
//	B    = diag(h/C_i)
//	c_i  = h/C_i · gAmb_i · TAmb
//
// G, C, TAmb and the substep h are fixed between AddCoupling /
// SetAmbientCoupling calls and TAmb writes, so A, B and c are
// precomputed once. Power is held constant over a tick, so the k substeps
// of one tick collapse into a single affine update
//
//	T(+dt) = A^k·T + S·(B·u + c),   S = Σ_{m<k} A^m
//
// computed by repeated squaring: composing two collapsed updates
// (P1, S1) and (P2, S2) gives (P2·P1, P2·S1 + S2), so A^k and S build in
// O(log k) matrix multiplies. The collapsed update is applied as a tight
// alloc-free matvec over flat row-major float64 arrays — no [][]float64
// pointer chasing, no per-element zero checks, one multiply-add per
// matrix entry.
//
// Row layout at k == 1. An RC network couples each node to a handful of
// neighbours, so most of A is exactly zero. A row with at most ellWidth
// nonzero entries is stored at a fixed width of ellWidth (the ELLPACK
// layout): its nonzero entries in ascending column order, then zero
// entries that point at the row's own node, evaluated as one unrolled
// run of multiply-adds with no inner loop or row bounds. A wider row (the
// package node, coupled to every core) is evaluated as a dense loop over
// its whole row of A, exactly as the reference evaluates it, and before
// the short rows (see step).
//
// Numerical contract: for k == 1 the kernel performs bit-for-bit the same
// float64 operations as the naive per-substep reference (stepReference),
// because P, Q, r are then exactly A, diag(B), c and both evaluate rows
// in the same order — the differential gates in internal/testkit pin
// byte-identical float64 traces on this. The reference's dense rows also
// add the zero entries' products, and the ELL rows add fewer of them, at
// the end; neither changes a sum. Each such product is 0·T_j, an exact
// zero, and adding an exact zero returns the accumulator unchanged unless
// the accumulator is itself −0 and the product +0. A row's accumulator
// starts at its drive term c_i = h/C_i·gAmb_i·TAmb, which is +0 for a core
// node (gAmb_i = 0) and positive for a node convecting to a positive
// ambient, and the diagonal term A_ii·T_i (A_ii > 0 under the stability
// step) makes it nonzero at any nonzero temperature, so it is never −0
// unless the ambient is below zero and every temperature the row reads is
// exactly 0 °C. For k > 1 the collapse reassociates the substep
// recurrence, so kernel and reference agree only to rounding (~1e-12
// relative); every fig-suite configuration has k == 1 (dt = 10 ms against
// a ≥ 27 ms stability step).

// Kernel selects the integration kernel Step uses. The zero value is the
// default float64 propagator.
type Kernel int

const (
	// KernelPropagator is the default: the collapsed float64 propagator
	// applied as a flat matvec.
	KernelPropagator Kernel = iota
	// KernelReference is the naive per-substep dense Euler stepper,
	// rebuilt from G, C and TAmb on every call. It exists as the
	// differential-gate reference and for tests; it is allocation-heavy
	// and must not be used on hot paths.
	KernelReference
)

// SetKernel selects the integration kernel for subsequent Step calls and
// invalidates the cached propagator.
func (n *Network) SetKernel(k Kernel) {
	n.kernel = k
	n.prop = nil
}

// propagator is the cached collapsed update for one (dt, TAmb, topology)
// combination: T' = P·T + Q·u + r with all matrices flat row-major.
type propagator struct {
	dt    float64 // tick length the cache was built for (s)
	tAmb  float64 // ambient the drive vector bakes in (°C)
	steps int     // substeps collapsed into P
	nn    int     // node count

	p     []float64 // nn×nn collapsed transition A^k
	qDiag []float64 // steps==1 fast path: diagonal input map h/C_i
	q     []float64 // steps>1: nn×nn dense input map S·B (nil when steps==1)
	r     []float64 // collapsed ambient drive S·c

	// steps==1 row layout of A (see the file comment): the rows with at
	// most ellWidth nonzero entries, zero-padded to that width, and the
	// indices of the wider rows, which step as dense rows of p.
	ell   []ellRow
	dense []int

	tNew []float64 // matvec output scratch
	d    []float64 // steps>1 scratch: Q·u + r for this tick
}

// ellWidth is the fixed width of a short row: the HiKey970 and
// tri-cluster core nodes couple to at most two neighbours and the package
// besides themselves. step's unrolled row reads exactly this many entries.
const ellWidth = 4

// ellRow is one row of the update at the fixed width: out[row] = r +
// Σ_k val[k]·t[col[k]] + q·u[row], padded with val 0, col row. r and q
// are copies of the row's r[row] and qDiag[row].
type ellRow struct {
	val  [ellWidth]float64
	col  [ellWidth]int
	row  int
	r, q float64
}

// eulerMatrices builds the per-substep affine update (A, bDiag, c) for
// substep length h. It is the single place defining the arithmetic that
// produces the matrix entries, shared by the propagator build and the
// reference stepper so both see bit-identical values.
func (n *Network) eulerMatrices(h float64) (a []float64, bDiag, c []float64) {
	nn := len(n.Nodes)
	a = make([]float64, nn*nn)
	bDiag = make([]float64, nn)
	c = make([]float64, nn)
	for i := 0; i < nn; i++ {
		hc := h / n.Nodes[i].Cap
		sum := n.gAmb[i]
		for j := 0; j < nn; j++ {
			sum += n.g[i][j]
			a[i*nn+j] = hc * n.g[i][j]
		}
		a[i*nn+i] = 1 - hc*sum
		bDiag[i] = hc
		c[i] = hc * n.gAmb[i] * n.TAmb
	}
	return a, bDiag, c
}

// buildPropagator constructs and caches the collapsed update for tick
// length dt. Cold path: it runs only after topology/ambient/kernel/dt
// changes and may allocate freely.
func (n *Network) buildPropagator(dt float64) *propagator {
	nn := len(n.Nodes)
	h := n.stableStep()
	steps := substepsFor(dt, h)
	hs := dt / float64(steps)
	a, bDiag, c := n.eulerMatrices(hs)

	pr := &propagator{
		dt: dt, tAmb: n.TAmb, steps: steps, nn: nn,
		tNew: make([]float64, nn),
	}
	if steps == 1 {
		// Exactly one substep: the collapsed update IS the substep, so
		// the kernel stays bit-identical to the reference stepper. Short
		// rows go to the fixed-width layout (ascending column order keeps
		// the accumulation order), the rest stay dense rows of A.
		pr.p, pr.qDiag, pr.r = a, bDiag, c
		for i := 0; i < nn; i++ {
			row := ellRow{row: i, r: c[i], q: bDiag[i]}
			k := 0
			for j := 0; j < nn && k <= ellWidth; j++ {
				if v := a[i*nn+j]; v != 0 {
					if k < ellWidth {
						row.val[k], row.col[k] = v, j
					}
					k++
				}
			}
			if k > ellWidth {
				pr.dense = append(pr.dense, i)
				continue
			}
			for ; k < ellWidth; k++ {
				row.col[k] = i
			}
			pr.ell = append(pr.ell, row)
		}
	} else {
		p, s := collapse(a, nn, steps)
		// Q = S·B with diagonal B scales S's columns; r = S·c.
		q := make([]float64, nn*nn)
		r := make([]float64, nn)
		for i := 0; i < nn; i++ {
			acc := 0.0
			for j := 0; j < nn; j++ {
				q[i*nn+j] = s[i*nn+j] * bDiag[j]
				acc += s[i*nn+j] * c[j]
			}
			r[i] = acc
		}
		pr.p, pr.q, pr.r = p, q, r
		pr.d = make([]float64, nn)
	}
	n.prop = pr
	return pr
}

// collapse returns (A^k, Σ_{m<k} A^m) by repeated squaring. Updates
// compose as (P2, S2)∘(P1, S1) = (P2·P1, P2·S1 + S2): applying the pair
// means T → P·T + S·d for the per-substep drive d = B·u + c.
func collapse(a []float64, nn, k int) (p, s []float64) {
	p = identity(nn)           // accumulator: zero substeps
	s = make([]float64, nn*nn) // Σ over zero substeps = 0
	baseP := append([]float64(nil), a...)
	baseS := identity(nn) // one substep: S = I
	for k > 0 {
		if k&1 == 1 {
			// acc = base ∘ acc
			s = matAdd(matMul(baseP, s, nn), baseS)
			p = matMul(baseP, p, nn)
		}
		k >>= 1
		if k > 0 {
			baseS = matAdd(matMul(baseP, baseS, nn), baseS)
			baseP = matMul(baseP, baseP, nn)
		}
	}
	return p, s
}

func identity(nn int) []float64 {
	m := make([]float64, nn*nn)
	for i := 0; i < nn; i++ {
		m[i*nn+i] = 1
	}
	return m
}

func matMul(a, b []float64, nn int) []float64 {
	out := make([]float64, nn*nn)
	for i := 0; i < nn; i++ {
		for l := 0; l < nn; l++ {
			ail := a[i*nn+l]
			if ail == 0 {
				continue
			}
			for j := 0; j < nn; j++ {
				out[i*nn+j] += ail * b[l*nn+j]
			}
		}
	}
	return out
}

func matAdd(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// step applies the collapsed float64 update t' = P·t + Q·u + r into the
// scratch tNew; Network.Step then swaps tNew and the state slice instead of
// copying. Row evaluation order (drive term, then P·t accumulation, then
// input term) matches stepReference exactly — see the numerical contract
// above.
//
//hot:per-simulation-tick
func (pr *propagator) step(t, u []float64) {
	nn := pr.nn
	p := pr.p
	out := pr.tNew
	if pr.steps == 1 {
		// Rows are independent, so the order they are evaluated in cannot
		// change a result. The dense rows go first: each is one long chain
		// of dependent additions, which the processor can then overlap
		// with the short rows.
		qd, r := pr.qDiag, pr.r
		for _, i := range pr.dense {
			acc := r[i]
			row := p[i*nn : i*nn+nn]
			for j, tj := range t {
				acc += row[j] * tj
			}
			acc += qd[i] * u[i]
			out[i] = acc
		}
		for k := range pr.ell {
			e := &pr.ell[k]
			acc := e.r
			acc += e.val[0] * t[e.col[0]]
			acc += e.val[1] * t[e.col[1]]
			acc += e.val[2] * t[e.col[2]]
			acc += e.val[3] * t[e.col[3]]
			acc += e.q * u[e.row]
			out[e.row] = acc
		}
		return
	}
	// Collapsed multi-substep form: d = Q·u + r once per tick, then one
	// transition matvec.
	d := pr.d
	q := pr.q
	for i := 0; i < nn; i++ {
		acc := pr.r[i]
		row := q[i*nn : i*nn+nn]
		for j, uj := range u {
			acc += row[j] * uj
		}
		d[i] = acc
	}
	for i := 0; i < nn; i++ {
		acc := d[i]
		row := p[i*nn : i*nn+nn]
		for j, tj := range t {
			acc += row[j] * tj
		}
		out[i] = acc
	}
}

// stepReference is the retained naive Euler stepper: it rebuilds the
// per-substep matrices from G, C and TAmb on every call and applies the k
// substeps one by one with freshly allocated scratch. It is the
// bit-level reference for the k == 1 kernel (same row evaluation order)
// and the rounding-level reference for collapsed k > 1 updates. Test and
// gate use only — it allocates on every call.
func (n *Network) stepReference(power []float64, dt float64) {
	nn := len(n.Nodes)
	h := n.stableStep()
	steps := substepsFor(dt, h)
	hs := dt / float64(steps)
	a, bDiag, c := n.eulerMatrices(hs)
	tNew := make([]float64, nn)
	for s := 0; s < steps; s++ {
		for i := 0; i < nn; i++ {
			acc := c[i]
			row := a[i*nn : i*nn+nn]
			for j, tj := range n.t {
				acc += row[j] * tj
			}
			acc += bDiag[i] * power[i]
			tNew[i] = acc
		}
		copy(n.t, tNew)
	}
}
