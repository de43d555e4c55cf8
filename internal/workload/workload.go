// Package workload models the applications executed on the platform and the
// open-system workload generator.
//
// The paper evaluates with PARSEC and Polybench binaries on a real board.
// Those binaries cannot run here, so each benchmark is substituted by an
// analytic application model with the characteristics that matter to the
// management policies: per-cluster IPC (how much the application benefits
// from the big cluster's out-of-order execution), L2 miss rate (memory-
// boundedness, i.e. DVFS sensitivity) and L2 access rate (the L2D
// performance counter the policies observe). PARSEC-like applications have
// execution phases; Polybench-like applications are phase-free, matching
// the paper's constraint that training-data benchmarks have constant QoS.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Phase is one execution phase of an application. Within a phase the
// application behaves stationarily.
type Phase struct {
	IPCBig    float64 // instructions per cycle on a big core (no memory stalls)
	IPCLittle float64 // instructions per cycle on a LITTLE core
	MPKI      float64 // L2 misses per kilo-instruction (drives memory stall time)
	L2APKI    float64 // L2 data-cache accesses per kilo-instruction (observable counter)
	Instr     float64 // instructions in one pass through this phase
}

// AppSpec is the static description of a benchmark application.
type AppSpec struct {
	Name       string
	Phases     []Phase
	TotalInstr float64 // instructions until completion
}

// PhaseAt returns the phase active after `executed` instructions. Phases
// repeat cyclically until TotalInstr is reached.
func (s AppSpec) PhaseAt(executed float64) Phase {
	if len(s.Phases) == 1 {
		return s.Phases[0]
	}
	var cycle float64
	for _, p := range s.Phases {
		cycle += p.Instr
	}
	pos := executed
	if cycle > 0 {
		// Position within the current cycle.
		n := int(pos / cycle)
		pos -= float64(n) * cycle
	}
	for _, p := range s.Phases {
		if pos < p.Instr {
			return p
		}
		pos -= p.Instr
	}
	return s.Phases[len(s.Phases)-1]
}

// PhaseSpanAt returns PhaseAt(executed) together with a conservative span
// bound: for every executed' in [executed, end), PhaseAt(executed') returns
// the same phase. The bound lets per-tick callers cache phase-derived
// quantities and refresh only on (or slightly before) a phase boundary; it
// deliberately undershoots the true boundary by a margin that dominates the
// float rounding in PhaseAt's cyclic position arithmetic, so a cache keyed
// on it can never serve a stale phase — early refreshes re-query the ground
// truth and are merely redundant.
func (s AppSpec) PhaseSpanAt(executed float64) (Phase, float64) {
	if len(s.Phases) == 1 {
		return s.Phases[0], math.Inf(1)
	}
	var cycle float64
	for _, p := range s.Phases {
		cycle += p.Instr
	}
	pos := executed
	if cycle > 0 {
		n := int(pos / cycle)
		pos -= float64(n) * cycle
	}
	for _, p := range s.Phases {
		if pos < p.Instr {
			// The margin is far above the few-ulp error of recomputing the
			// cyclic position at a later `executed`, and far below the
			// billions-of-instructions phase lengths of real specs.
			end := executed + (p.Instr - pos) - (1 + 1e-9*math.Abs(executed))
			if end < executed {
				end = executed // degenerate short phase: refresh every call
			}
			return p, end
		}
		pos -= p.Instr
	}
	return s.Phases[len(s.Phases)-1], executed
}

// Validate checks internal consistency of the spec.
func (s AppSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec with empty name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: %s: no phases", s.Name)
	}
	if s.TotalInstr <= 0 {
		return fmt.Errorf("workload: %s: TotalInstr = %g", s.Name, s.TotalInstr)
	}
	for i, p := range s.Phases {
		if p.IPCBig <= 0 || p.IPCLittle <= 0 {
			return fmt.Errorf("workload: %s phase %d: non-positive IPC", s.Name, i)
		}
		if p.MPKI < 0 || p.L2APKI < 0 {
			return fmt.Errorf("workload: %s phase %d: negative cache rate", s.Name, i)
		}
		if len(s.Phases) > 1 && p.Instr <= 0 {
			return fmt.Errorf("workload: %s phase %d: non-positive Instr", s.Name, i)
		}
	}
	return nil
}

// catalog holds every modelled benchmark. Polybench-like applications are
// single-phase (constant behaviour, usable for oracle trace collection);
// PARSEC-like applications are multi-phase and serve as unseen applications
// in the evaluation, exactly as in the paper.
var catalog = []AppSpec{
	// ---- Polybench-like (phase-free) ----
	// adi strongly benefits from out-of-order execution: the paper's
	// motivational example shows it needs LITTLE@1.8 GHz but only
	// big@0.7 GHz for a QoS target of 30 % of its big-peak IPS.
	{Name: "adi", TotalInstr: 40e9,
		Phases: []Phase{{IPCBig: 2.0, IPCLittle: 0.75, MPKI: 0.5, L2APKI: 4}}},
	{Name: "fdtd-2d", TotalInstr: 36e9,
		Phases: []Phase{{IPCBig: 1.6, IPCLittle: 1.0, MPKI: 3.0, L2APKI: 12}}},
	{Name: "floyd-warshall", TotalInstr: 44e9,
		Phases: []Phase{{IPCBig: 1.8, IPCLittle: 0.85, MPKI: 1.0, L2APKI: 6}}},
	{Name: "gramschmidt", TotalInstr: 38e9,
		Phases: []Phase{{IPCBig: 1.9, IPCLittle: 0.95, MPKI: 1.5, L2APKI: 8}}},
	{Name: "heat-3d", TotalInstr: 34e9,
		Phases: []Phase{{IPCBig: 1.5, IPCLittle: 1.05, MPKI: 4.0, L2APKI: 14}}},
	{Name: "jacobi-2d", TotalInstr: 36e9,
		Phases: []Phase{{IPCBig: 1.55, IPCLittle: 1.0, MPKI: 3.5, L2APKI: 13}}},
	// seidel-2d barely benefits from out-of-order execution (loop-carried
	// dependences serialize it); the paper's example maps it to LITTLE.
	{Name: "seidel-2d", TotalInstr: 40e9,
		Phases: []Phase{{IPCBig: 1.3, IPCLittle: 1.1, MPKI: 2.0, L2APKI: 9}}},
	{Name: "syr2k", TotalInstr: 42e9,
		Phases: []Phase{{IPCBig: 2.1, IPCLittle: 0.9, MPKI: 0.8, L2APKI: 5}}},
	{Name: "covariance", TotalInstr: 38e9,
		Phases: []Phase{{IPCBig: 1.7, IPCLittle: 1.0, MPKI: 2.5, L2APKI: 10}}},

	// ---- PARSEC-like (phased, unseen by training) ----
	{Name: "blackscholes", TotalInstr: 44e9, Phases: []Phase{
		{IPCBig: 2.2, IPCLittle: 1.0, MPKI: 0.3, L2APKI: 3, Instr: 4e9},
		{IPCBig: 1.9, IPCLittle: 0.9, MPKI: 0.6, L2APKI: 4, Instr: 3e9},
	}},
	{Name: "bodytrack", TotalInstr: 40e9, Phases: []Phase{
		{IPCBig: 1.7, IPCLittle: 0.9, MPKI: 2.0, L2APKI: 8, Instr: 3e9},
		{IPCBig: 1.4, IPCLittle: 1.0, MPKI: 5.0, L2APKI: 15, Instr: 2e9},
		{IPCBig: 1.8, IPCLittle: 0.95, MPKI: 1.5, L2APKI: 7, Instr: 3e9},
	}},
	// canneal is memory-intensive: its performance depends only weakly on
	// the VF level (the paper notes it is the only application meeting its
	// QoS under powersave).
	{Name: "canneal", TotalInstr: 30e9, Phases: []Phase{
		{IPCBig: 1.5, IPCLittle: 1.0, MPKI: 12, L2APKI: 30, Instr: 4e9},
		{IPCBig: 1.3, IPCLittle: 0.95, MPKI: 10, L2APKI: 26, Instr: 4e9},
	}},
	// dedup alternates memory-heavy and compute-heavy phases; with periodic
	// migration this produces the paper's "negative overhead" artefact.
	{Name: "dedup", TotalInstr: 38e9, Phases: []Phase{
		{IPCBig: 1.6, IPCLittle: 0.9, MPKI: 6.0, L2APKI: 18, Instr: 2e9},
		{IPCBig: 2.0, IPCLittle: 0.95, MPKI: 1.0, L2APKI: 5, Instr: 2e9},
	}},
	{Name: "facesim", TotalInstr: 42e9, Phases: []Phase{
		{IPCBig: 1.8, IPCLittle: 0.9, MPKI: 2.0, L2APKI: 9, Instr: 3e9},
		{IPCBig: 1.5, IPCLittle: 1.0, MPKI: 4.5, L2APKI: 14, Instr: 2e9},
		{IPCBig: 2.0, IPCLittle: 0.95, MPKI: 0.8, L2APKI: 5, Instr: 3e9},
	}},
	{Name: "ferret", TotalInstr: 40e9, Phases: []Phase{
		{IPCBig: 1.9, IPCLittle: 0.9, MPKI: 1.2, L2APKI: 6, Instr: 4e9},
		{IPCBig: 1.6, IPCLittle: 1.0, MPKI: 3.0, L2APKI: 11, Instr: 3e9},
	}},
	{Name: "fluidanimate", TotalInstr: 36e9, Phases: []Phase{
		{IPCBig: 1.7, IPCLittle: 1.0, MPKI: 3.5, L2APKI: 12, Instr: 3e9},
		{IPCBig: 1.5, IPCLittle: 1.05, MPKI: 5.0, L2APKI: 16, Instr: 2e9},
	}},
	{Name: "swaptions", TotalInstr: 46e9, Phases: []Phase{
		{IPCBig: 2.3, IPCLittle: 1.05, MPKI: 0.2, L2APKI: 2},
	}},
	{Name: "streamcluster", TotalInstr: 34e9, Phases: []Phase{
		{IPCBig: 1.4, IPCLittle: 0.95, MPKI: 8.0, L2APKI: 22, Instr: 3e9},
		{IPCBig: 1.6, IPCLittle: 1.0, MPKI: 5.0, L2APKI: 15, Instr: 2e9},
	}},
	{Name: "x264", TotalInstr: 44e9, Phases: []Phase{
		{IPCBig: 2.1, IPCLittle: 0.95, MPKI: 1.0, L2APKI: 6, Instr: 3e9},
		{IPCBig: 1.7, IPCLittle: 0.9, MPKI: 2.5, L2APKI: 10, Instr: 2e9},
		{IPCBig: 2.2, IPCLittle: 1.0, MPKI: 0.6, L2APKI: 4, Instr: 2e9},
	}},
	{Name: "vips", TotalInstr: 40e9, Phases: []Phase{
		{IPCBig: 1.8, IPCLittle: 0.95, MPKI: 2.2, L2APKI: 9, Instr: 4e9},
		{IPCBig: 1.6, IPCLittle: 1.0, MPKI: 3.8, L2APKI: 13, Instr: 3e9},
	}},
	{Name: "raytrace", TotalInstr: 42e9, Phases: []Phase{
		{IPCBig: 2.0, IPCLittle: 0.9, MPKI: 1.5, L2APKI: 7, Instr: 5e9},
		{IPCBig: 1.8, IPCLittle: 0.95, MPKI: 2.2, L2APKI: 9, Instr: 3e9},
	}},

	// ---- additional Polybench-like kernels (phase-free) ----
	{Name: "gemm", TotalInstr: 46e9,
		Phases: []Phase{{IPCBig: 2.2, IPCLittle: 0.95, MPKI: 0.6, L2APKI: 4}}},
	{Name: "atax", TotalInstr: 30e9,
		Phases: []Phase{{IPCBig: 1.45, IPCLittle: 1.0, MPKI: 5.5, L2APKI: 17}}},
	{Name: "bicg", TotalInstr: 30e9,
		Phases: []Phase{{IPCBig: 1.5, IPCLittle: 1.0, MPKI: 5.0, L2APKI: 16}}},
	{Name: "cholesky", TotalInstr: 40e9,
		Phases: []Phase{{IPCBig: 1.9, IPCLittle: 0.9, MPKI: 1.2, L2APKI: 6}}},
	{Name: "doitgen", TotalInstr: 36e9,
		Phases: []Phase{{IPCBig: 1.75, IPCLittle: 1.0, MPKI: 2.2, L2APKI: 9}}},
}

// Catalog returns all modelled benchmarks, sorted by name.
func Catalog() []AppSpec {
	out := make([]AppSpec, len(catalog))
	copy(out, catalog)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName looks up a benchmark by name.
func ByName(name string) (AppSpec, bool) {
	for _, s := range catalog {
		if s.Name == name {
			return s, true
		}
	}
	return AppSpec{}, false
}

// TrainingSet returns the names of the seven phase-free benchmarks used for
// oracle trace collection and model training (the paper trains on Polybench
// except jacobi-2d).
func TrainingSet() []string {
	return []string{"adi", "fdtd-2d", "floyd-warshall", "gramschmidt",
		"heat-3d", "seidel-2d", "syr2k"}
}

// HeldOutSet returns the phase-free benchmarks excluded from training, used
// for the model-in-isolation evaluation (test AoIs).
func HeldOutSet() []string { return []string{"jacobi-2d", "covariance"} }

// UnseenSet returns the PARSEC-like phased applications never used in
// training; the paper's single-application experiments use only these.
func UnseenSet() []string {
	return []string{"blackscholes", "bodytrack", "canneal", "dedup",
		"facesim", "ferret", "fluidanimate", "swaptions"}
}

// MixedPool returns the 16 application names of the paper's main mixed
// workload experiment (8 PARSEC + 8 Polybench).
func MixedPool() []string {
	return append([]string{"adi", "fdtd-2d", "floyd-warshall", "gramschmidt",
		"heat-3d", "jacobi-2d", "seidel-2d", "syr2k"}, UnseenSet()...)
}

// Job is one application instance in an open-system workload: a benchmark,
// its QoS target (IPS) and its arrival time.
type Job struct {
	Spec    AppSpec
	QoS     float64 // QoS target in instructions per second
	Arrival float64 // seconds from experiment start
}

// Generator produces randomized open-system workloads with Poisson arrivals,
// as in the paper's main experiment.
type Generator struct {
	rng *rand.Rand
	// QoSFor maps a benchmark to its QoS target. Typically a random
	// fraction of the application's peak IPS on the big cluster; the
	// fraction range is configured via QoSFrac.
	peakIPS  func(AppSpec) float64
	pool     []string
	qosLo    float64
	qosHi    float64
	scaleRun float64 // scales TotalInstr (to shorten experiments)
}

// NewGenerator creates a workload generator.
//
// peakIPS must return the application's maximum achievable IPS (highest VF
// level on the big cluster, alone on a core); QoS targets are drawn
// uniformly from [qosLo, qosHi] of that peak. instrScale scales each
// application's instruction count (1.0 = full length). It panics on a QoS
// fraction range outside (0,1) or a non-positive instruction scale.
func NewGenerator(seed int64, pool []string, peakIPS func(AppSpec) float64,
	qosLo, qosHi, instrScale float64) *Generator {
	if qosLo <= 0 || qosHi < qosLo || qosHi >= 1 {
		panic(fmt.Sprintf("workload: invalid QoS fraction range [%g,%g]", qosLo, qosHi))
	}
	if instrScale <= 0 {
		panic("workload: non-positive instruction scale")
	}
	return &Generator{
		rng:      rand.New(rand.NewSource(seed)),
		peakIPS:  peakIPS,
		pool:     pool,
		qosLo:    qosLo,
		qosHi:    qosHi,
		scaleRun: instrScale,
	}
}

// Generate draws n jobs with exponential inter-arrival times at the given
// arrival rate (jobs per second), sorted by arrival time. It panics on a
// non-positive rate or a pool naming an unknown benchmark.
func (g *Generator) Generate(n int, rate float64) []Job {
	if rate <= 0 {
		panic("workload: non-positive arrival rate")
	}
	jobs := make([]Job, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		name := g.pool[g.rng.Intn(len(g.pool))]
		spec, ok := ByName(name)
		if !ok {
			panic("workload: unknown benchmark in pool: " + name)
		}
		spec.TotalInstr *= g.scaleRun
		frac := g.qosLo + g.rng.Float64()*(g.qosHi-g.qosLo)
		jobs = append(jobs, Job{
			Spec:    spec,
			QoS:     frac * g.peakIPS(spec),
			Arrival: t,
		})
		t += g.rng.ExpFloat64() / rate
	}
	return jobs
}
