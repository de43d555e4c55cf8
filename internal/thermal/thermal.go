// Package thermal implements a lumped RC thermal network of the chip and
// package, reproducing the two effects that the paper argues distinguish
// temperature from power/energy optimization:
//
//   - spatial: heat transfer between cores and through the package couples
//     every core's temperature to every other core's power, and
//   - temporal: heat capacities make temperature depend on the entire power
//     history, not only the current configuration.
//
// The network is a set of nodes (one per core plus a package node), each
// with a heat capacity, connected by thermal conductances to each other and
// to the ambient. The fan of the paper's active-cooling setup is modelled
// as a larger package-to-ambient conductance.
package thermal

import "fmt"

// Node is one thermal node of the network.
type Node struct {
	Name string
	Cap  float64 // heat capacity in J/K
}

// Network is a lumped RC thermal model. Temperatures are in °C, powers in
// W, conductances in W/K.
//
// Stepping semantics: the network advances by subdivided forward Euler,
// expressed in matrix form as the affine per-substep update
// T' = A·T + B·u + c (see propagator.go for the derivation). Step applies
// a cached, collapsed form of that update; the Kernel selects between the
// default float64 propagator and the naive per-substep Euler reference
// retained for differential gates.
type Network struct {
	Nodes []Node
	// TAmb is the ambient temperature in °C. It may be written at any
	// time; Step notices the change and rebuilds the cached propagator,
	// whose drive vector bakes in the ambient term.
	TAmb float64

	g    [][]float64 // symmetric node-to-node conductances
	gAmb []float64   // node-to-ambient conductances
	t    []float64   // current temperatures

	kernel Kernel      // integration kernel selected via SetKernel
	prop   *propagator // cached collapsed update; nil after mutations

	// maxStep is the largest integration step (s) guaranteeing forward-
	// Euler stability; computed lazily from capacities and conductances.
	maxStep float64
}

// NewNetwork creates a network with all nodes at ambient temperature and no
// couplings.
func NewNetwork(nodes []Node, tAmb float64) *Network {
	n := len(nodes)
	g := make([][]float64, n)
	for i := range g {
		g[i] = make([]float64, n)
	}
	t := make([]float64, n)
	for i := range t {
		t[i] = tAmb
	}
	return &Network{
		Nodes: nodes,
		TAmb:  tAmb,
		g:     g,
		gAmb:  make([]float64, n),
		t:     t,
	}
}

// AddCoupling adds a thermal conductance of g W/K between nodes i and j.
// It panics on self-coupling or a negative conductance.
func (n *Network) AddCoupling(i, j int, g float64) {
	if i == j {
		panic("thermal: self coupling")
	}
	if g < 0 {
		panic("thermal: negative conductance")
	}
	n.g[i][j] += g
	n.g[j][i] += g
	n.maxStep = 0
	n.prop = nil
}

// SetAmbientCoupling sets the conductance from node i to ambient (W/K).
// It panics on a negative conductance.
func (n *Network) SetAmbientCoupling(i int, g float64) {
	if g < 0 {
		panic("thermal: negative conductance")
	}
	n.gAmb[i] = g
	n.maxStep = 0
	n.prop = nil
}

// panicMsg keeps panic's interface conversion out of the //hot callers:
// even a constant message counts against the zero-allocation gate. It
// always panics with msg.
//
//go:noinline
func panicMsg(msg string) { panic(msg) }

// panicPowerLen keeps the formatting allocation out of the //hot Step:
// fmt.Sprintf arguments escape, and the gate must only see the live path.
//
//go:noinline
func panicPowerLen(got, want int) {
	panic(fmt.Sprintf("thermal: power vector length %d, want %d", got, want))
}

// stableStep returns a forward-Euler step below the stability limit
// dt < C_i / ΣG_i for every node.
//
//hot:per-simulation-tick
func (n *Network) stableStep() float64 {
	if n.maxStep > 0 {
		return n.maxStep
	}
	best := 1.0
	for i := range n.Nodes {
		sum := n.gAmb[i]
		for j := range n.Nodes {
			sum += n.g[i][j]
		}
		if sum <= 0 {
			continue
		}
		if dt := 0.5 * n.Nodes[i].Cap / sum; dt < best {
			best = dt
		}
	}
	n.maxStep = best
	return best
}

// substepsFor is the substep-count rule shared by the kernels: the
// smallest k with dt/k ≤ h. The truncate-then-check form makes exact
// multiples of h (dt = k·h) use exactly k substeps instead of k+1.
func substepsFor(dt, h float64) int {
	steps := int(dt / h)
	if float64(steps)*h < dt {
		steps++ // fractional ratio: round up to stay under the limit
	}
	if steps < 1 {
		steps = 1
	}
	return steps
}

// Step advances the network by dt seconds with the given per-node power
// injection (W), held constant over the tick. It subdivides dt internally
// to stay within the explicit integration stability limit and applies the
// substeps through the cached propagator of the selected kernel (see
// propagator.go); the cache rebuilds automatically after coupling,
// ambient, kernel, or dt changes. It panics on a power vector of the
// wrong length or a non-positive dt.
//
//hot:per-simulation-tick
func (n *Network) Step(power []float64, dt float64) {
	if len(power) != len(n.Nodes) {
		panicPowerLen(len(power), len(n.Nodes))
	}
	if dt <= 0 {
		panicMsg("thermal: non-positive dt")
	}
	if n.kernel == KernelReference {
		n.stepReference(power, dt)
		return
	}
	pr := n.prop
	if pr == nil || pr.dt != dt || pr.tAmb != n.TAmb {
		pr = n.buildPropagator(dt) // cold path: mutation or new dt
	}
	pr.step(n.t, power)
	n.t, pr.tNew = pr.tNew, n.t
}

// Temps returns a copy of the current node temperatures in °C. Hot paths
// that cannot afford the allocation read TempsView instead.
func (n *Network) Temps() []float64 { return append([]float64(nil), n.t...) }

// TempsView returns the live node-temperature slice in °C without copying.
// The slice aliases network state: callers must treat it as read-only and
// must not retain it across mutations of the network (Step writes the new
// temperatures to a second buffer and swaps the two: a view retained
// across a Step holds the previous temperatures until the next Step
// overwrites it). It exists for the per-tick fused power→thermal→sensor path,
// where even a 9-element copy per tick is measurable.
func (n *Network) TempsView() []float64 { return n.t }

// Temp returns the temperature of node i.
func (n *Network) Temp(i int) float64 { return n.t[i] }

// Max returns the hottest node temperature.
func (n *Network) Max() float64 {
	m := n.t[0]
	for _, v := range n.t[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Reset returns all nodes to ambient temperature.
func (n *Network) Reset() {
	for i := range n.t {
		n.t[i] = n.TAmb
	}
}

// SetTemps overwrites the node temperatures in °C (e.g. to start an
// experiment from a warmed-up state). It panics on a length mismatch.
func (n *Network) SetTemps(t []float64) {
	if len(t) != len(n.t) {
		panic("thermal: temperature vector length mismatch")
	}
	copy(n.t, t)
}

// SteadyState solves for the equilibrium temperatures (°C) under constant
// per-node power (W), without modifying the network state. It performs
// Gaussian elimination on the conductance matrix; the system is strictly
// diagonally dominant as long as every node has a path to ambient. It
// panics on a power vector of the wrong length or a singular network
// (a node with no path to ambient).
func (n *Network) SteadyState(power []float64) []float64 {
	if len(power) != len(n.Nodes) {
		panic("thermal: power vector length mismatch")
	}
	size := len(n.Nodes)
	// Build A·T = b with A[i][i] = gAmb[i] + Σ_j g[i][j],
	// A[i][j] = -g[i][j], b[i] = P[i] + gAmb[i]·TAmb.
	a := make([][]float64, size)
	b := make([]float64, size)
	for i := 0; i < size; i++ {
		a[i] = make([]float64, size)
		diag := n.gAmb[i]
		for j := 0; j < size; j++ {
			diag += n.g[i][j]
			a[i][j] = -n.g[i][j]
		}
		a[i][i] = diag
		b[i] = power[i] + n.gAmb[i]*n.TAmb
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < size; col++ {
		piv := col
		for r := col + 1; r < size; r++ {
			if abs(a[r][col]) > abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		if a[col][col] == 0 {
			panic("thermal: singular network (node without path to ambient)")
		}
		for r := col + 1; r < size; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < size; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	t := make([]float64, size)
	for i := size - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < size; j++ {
			sum -= a[i][j] * t[j]
		}
		t[i] = sum / a[i][i]
	}
	return t
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// --- HiKey970 floorplan preset ---

// PkgNode is the index of the package node in networks built by HiKey970Network.
const PkgNode = 8

// HiKey970Network builds the thermal model of the HiKey970: eight core
// nodes (0-3 LITTLE, 4-7 big) coupled laterally within each cluster and
// vertically into a shared package/board node, which convects to ambient.
// fan selects the active-cooling setup used for oracle trace collection;
// without a fan the package-to-ambient resistance roughly doubles,
// reproducing the paper's passive-cooling generalization experiment.
func HiKey970Network(fan bool, tAmb float64) *Network {
	nodes := make([]Node, 9)
	for i := 0; i < 4; i++ {
		nodes[i] = Node{Name: fmt.Sprintf("little%d", i), Cap: 0.05}
	}
	for i := 4; i < 8; i++ {
		nodes[i] = Node{Name: fmt.Sprintf("big%d", i-4), Cap: 0.15}
	}
	nodes[PkgNode] = Node{Name: "package", Cap: 12}
	n := NewNetwork(nodes, tAmb)

	// Vertical: core to package. Big cores have larger area, hence better
	// conduction into the package; the LITTLE cores' lower power density
	// keeps their per-watt rise only moderately above the big cores'.
	for i := 0; i < 4; i++ {
		n.SetAmbientCoupling(i, 0) // cores reach ambient only via the package
		n.AddCoupling(i, PkgNode, 0.40)
	}
	for i := 4; i < 8; i++ {
		n.AddCoupling(i, PkgNode, 0.50)
	}
	// Lateral: neighbouring cores within a cluster.
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}} {
		n.AddCoupling(pair[0], pair[1], 0.20)
	}
	// Weak coupling across the cluster boundary.
	n.AddCoupling(3, 4, 0.10)

	// Package to ambient: convection, improved by the fan.
	if fan {
		n.SetAmbientCoupling(PkgNode, 0.25) // ≈4 K/W
	} else {
		n.SetAmbientCoupling(PkgNode, 0.11) // ≈9 K/W
	}
	return n
}

// TriClusterNetwork builds a thermal model for the platform.TriCluster
// preset: four LITTLE nodes (0-3), two mid nodes (4-5), two big nodes
// (6-7) and a package node (index 8, same as PkgNode).
func TriClusterNetwork(fan bool, tAmb float64) *Network {
	nodes := make([]Node, 9)
	for i := 0; i < 4; i++ {
		nodes[i] = Node{Name: fmt.Sprintf("little%d", i), Cap: 0.04}
	}
	for i := 4; i < 6; i++ {
		nodes[i] = Node{Name: fmt.Sprintf("mid%d", i-4), Cap: 0.10}
	}
	for i := 6; i < 8; i++ {
		nodes[i] = Node{Name: fmt.Sprintf("big%d", i-6), Cap: 0.16}
	}
	nodes[PkgNode] = Node{Name: "package", Cap: 12}
	n := NewNetwork(nodes, tAmb)
	for i := 0; i < 4; i++ {
		n.AddCoupling(i, PkgNode, 0.38)
	}
	for i := 4; i < 6; i++ {
		n.AddCoupling(i, PkgNode, 0.45)
	}
	for i := 6; i < 8; i++ {
		n.AddCoupling(i, PkgNode, 0.52)
	}
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {6, 7}, {3, 4}, {5, 6}} {
		n.AddCoupling(pair[0], pair[1], 0.18)
	}
	if fan {
		n.SetAmbientCoupling(PkgNode, 0.25)
	} else {
		n.SetAmbientCoupling(PkgNode, 0.11)
	}
	return n
}
