package oracle

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/platform"
)

// NotApplicable marks a core without a temperature in Example.Temps
// (occupied by background, or unable to meet the QoS target).
const NotApplicable = -1

// Example is one oracle demonstration: the feature vector of an AoI state
// and the per-core soft labels of Eq. (4). Temps and OptTemp retain the
// underlying oracle temperatures for the model-in-isolation evaluation.
type Example struct {
	AoIName  string    `json:"aoi"`
	Features []float64 `json:"x"`
	Labels   []float64 `json:"y"`
	Temps    []float64 `json:"temps"` // °C per core; NotApplicable where unusable
	OptTemp  float64   `json:"opt"`   // °C of the oracle-optimal mapping
}

// Dataset is a collection of oracle demonstrations.
type Dataset struct {
	NumCores int       `json:"numCores"`
	Examples []Example `json:"examples"`
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// ToNN converts to the neural-network training format.
func (d *Dataset) ToNN() nn.Dataset {
	var out nn.Dataset
	for _, e := range d.Examples {
		out.X = append(out.X, e.Features)
		out.Y = append(out.Y, e.Labels)
	}
	return out
}

// Stats summarizes a dataset's label distribution — the quantities that
// determine whether a model can learn per-cluster feasibility and
// near-optimality from it.
type Stats struct {
	Examples int
	PerAoI   map[string]int
	// Label classes on candidate (free) cores.
	Optimal     int // label == 1 (the coolest mapping)
	NearOptimal int // label in (0.5, 1)
	Suboptimal  int // label in (0, 0.5]
	Infeasible  int // label == -1 (QoS unreachable on that core)
	// MeanFreeCores is the average number of candidate cores per example.
	MeanFreeCores float64
}

// ComputeStats scans the dataset.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{Examples: d.Len(), PerAoI: map[string]int{}}
	totalFree := 0
	for _, e := range d.Examples {
		s.PerAoI[e.AoIName]++
		for c, l := range e.Labels {
			if e.Temps[c] == NotApplicable && l != -1 {
				continue // occupied by background
			}
			totalFree++
			switch {
			case l == -1:
				s.Infeasible++
			case l >= 1:
				s.Optimal++
			case l > 0.5:
				s.NearOptimal++
			default:
				s.Suboptimal++
			}
		}
	}
	if d.Len() > 0 {
		s.MeanFreeCores = float64(totalFree) / float64(d.Len())
	}
	return s
}

// AoINames returns the distinct AoI benchmarks present, sorted.
func (d *Dataset) AoINames() []string {
	seen := map[string]bool{}
	for _, e := range d.Examples {
		seen[e.AoIName] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Save writes the dataset as gzipped JSON.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	if err := json.NewEncoder(zw).Encode(d); err != nil {
		zw.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// Load reads a dataset written by Save.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	var d Dataset
	if err := json.NewDecoder(zr).Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}

// resolved holds, for one (selection, free core) pair, the VF-level grid
// positions the DVFS subsystem would pick (Eq. 3) and the resulting trace
// measurement.
type resolved struct {
	feasible bool // QoS target reachable on this core
	li, bi   int  // grid positions (LITTLE, big)
	point    TracePoint
}

// resolve implements Eq. (3) for the AoI on `core`: the other cluster runs
// at the background-required level; the AoI's own cluster runs at the
// lowest traced level that is at least the background requirement and
// satisfies the QoS target. If the target is unreachable the own cluster
// resolves to its highest level (the state the example must describe).
func resolve(ts *TraceSet, plat *platform.Platform, core platform.CoreID,
	q float64, liTilde, biTilde int) (resolved, error) {
	own := plat.ClusterIndexOf(core) // 0 = LITTLE, 1 = big
	ownTilde := liTilde
	if own == 1 {
		ownTilde = biTilde
	}
	pick := func(ownPos int) (int, int) {
		if own == 0 {
			return ownPos, biTilde
		}
		return liTilde, ownPos
	}
	for pos := ownTilde; pos < len(ts.Grid); pos++ {
		li, bi := pick(pos)
		p, err := ts.Point(core, li, bi)
		if err != nil {
			return resolved{}, err
		}
		if p.AoIIPS >= q {
			return resolved{feasible: true, li: li, bi: bi, point: p}, nil
		}
	}
	li, bi := pick(len(ts.Grid) - 1)
	p, err := ts.Point(core, li, bi)
	if err != nil {
		return resolved{}, err
	}
	return resolved{feasible: false, li: li, bi: bi, point: p}, nil
}

// ExtractExamples sweeps QoS targets and background VF requirements over
// the trace set and emits one training example per free core per selection,
// with exact-duplicate examples removed. It first simulates every point of
// an on-demand set not read yet, so the sweep never sees a partial set.
func ExtractExamples(ts *TraceSet, cfg Config) ([]Example, error) {
	plat := platform.HiKey970()
	little, _ := plat.ClusterByKind(platform.Little)
	big, _ := plat.ClusterByKind(platform.Big)
	if len(cfg.QoSFracs) == 0 {
		return nil, fmt.Errorf("oracle: no QoS fractions configured")
	}
	points, err := ts.fill()
	if err != nil {
		return nil, err
	}
	maxIPS := maxAoIIPS(points)
	if maxIPS <= 0 {
		return nil, fmt.Errorf("oracle: traces contain no AoI progress")
	}

	// QoS targets to sweep: global fractions of the best observed IPS,
	// plus values bracketing each cluster's own maximum. The boundary
	// values generate the near-miss demonstrations (target just beyond a
	// cluster's reach → label −1) that teach the model per-cluster
	// feasibility, the paper's Fig. (d) line II.
	qValues := make([]float64, 0, len(cfg.QoSFracs)+8)
	for _, frac := range cfg.QoSFracs {
		qValues = append(qValues, frac*maxIPS)
	}
	for _, kind := range []platform.ClusterKind{platform.Little, platform.Big} {
		clusterMax := 0.0
		for key, pt := range points {
			if plat.KindOf(key.core) == kind && pt.AoIIPS > clusterMax {
				clusterMax = pt.AoIIPS
			}
		}
		if clusterMax <= 0 {
			continue
		}
		for _, f := range []float64{0.9, 0.98, 1.06, 1.2} {
			if v := f * clusterMax; v < maxIPS {
				qValues = append(qValues, v)
			}
		}
	}

	// Background occupancy (excluding the AoI) and which clusters have
	// background — clusters without background sweep only the lowest
	// requirement.
	occ := make([]float64, ts.NumCores)
	bgOn := make([]bool, plat.NumClusters())
	for _, b := range ts.Scenario.Background {
		occ[b.Core] = 1
		bgOn[plat.ClusterIndexOf(b.Core)] = true
	}
	sweep := func(cluster int) []int {
		if !bgOn[cluster] {
			return []int{0}
		}
		idx := make([]int, len(ts.Grid))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}

	// Examples are exact duplicates when their features have the same
	// bits: -0 and +0 differ, and so would two NaN payloads, but
	// features.Assemble never produces NaN.
	var out []Example
	seen := map[string]bool{}
	var key []byte
	for _, q := range qValues {
		for _, liTilde := range sweep(0) {
			for _, biTilde := range sweep(1) {
				res, labels, temps, optTemp, ok, err := labelSelection(ts, plat, cfg, q, liTilde, biTilde)
				if err != nil {
					return nil, err
				}
				if !ok {
					// No core can satisfy the target: the paper's
					// sweep skips such selections (nothing to learn).
					continue
				}

				tildeL := little.FreqAt(ts.Grid[liTilde])
				tildeB := big.FreqAt(ts.Grid[biTilde])
				for _, src := range ts.FreeCores {
					r := res[src]
					fl := little.FreqAt(ts.Grid[r.li])
					fb := big.FreqAt(ts.Grid[r.bi])
					x := features.Assemble(
						r.point.AoIIPS, r.point.AoIL2DPS,
						int(src), ts.NumCores, q,
						[]float64{tildeL / fl, tildeB / fb},
						occ)
					key = key[:0]
					for _, v := range x {
						key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
					}
					if seen[string(key)] {
						continue
					}
					seen[string(key)] = true
					out = append(out, Example{
						AoIName:  ts.Scenario.AoI.Name,
						Features: x,
						Labels:   labels,
						Temps:    temps,
						OptTemp:  optTemp,
					})
				}
			}
		}
	}
	if cfg.MaxExamplesPerScenario > 0 && len(out) > cfg.MaxExamplesPerScenario {
		out = subsample(out, cfg.MaxExamplesPerScenario, cfg.Seed+int64(len(out)))
	}
	return out, nil
}

// subsample keeps n examples by a seeded shuffle, preserving the relative
// order of the survivors (deterministic for a given input and seed).
func subsample(exs []Example, n int, seed int64) []Example {
	idx := rand.New(rand.NewSource(seed)).Perm(len(exs))
	keep := make(map[int]bool, n)
	for _, i := range idx[:n] {
		keep[i] = true
	}
	out := make([]Example, 0, n)
	for i, e := range exs {
		if keep[i] {
			out = append(out, e)
		}
	}
	return out
}

// BuildDataset collects traces and extracts examples for every scenario,
// on up to GOMAXPROCS goroutines, and returns the examples in scenario
// order. If scenarios fail, the error is the lowest-indexed failure's.
// progress (optional) is called after each scenario that succeeds, one
// call at a time, with done counting up from 1.
func BuildDataset(scenarios []Scenario, cfg Config, progress func(done, total int)) (*Dataset, error) {
	return buildDataset(scenarios, cfg, progress, runtime.GOMAXPROCS(0))
}

// buildDataset is BuildDataset on up to workers goroutines. Scenarios are
// claimed in index order and no claim follows a failure, so every
// scenario below a failed one has run and the lowest-indexed failure is
// the same at any worker count.
func buildDataset(scenarios []Scenario, cfg Config, progress func(done, total int), workers int) (*Dataset, error) {
	n := len(scenarios)
	exs := make([][]Example, n)
	errs := make([]error, n)
	var (
		mu         sync.Mutex // guards next and failed
		next       int
		failed     bool
		progressMu sync.Mutex // serializes progress calls and guards done
		done       int
		wg         sync.WaitGroup
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if failed || next == n {
			return -1
		}
		next++
		return next - 1
	}
	for range max(1, min(workers, n)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(); i >= 0; i = claim() {
				exs[i], errs[i] = scenarioExamples(scenarios[i], cfg)
				if errs[i] != nil {
					mu.Lock()
					failed = true
					mu.Unlock()
				} else if progress != nil {
					progressMu.Lock()
					done++
					progress(done, n)
					progressMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	d := &Dataset{NumCores: platform.HiKey970().NumCores()}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle: scenario %d (%s): %w", i, scenarios[i].AoI.Name, err)
		}
		d.Examples = append(d.Examples, exs[i]...)
	}
	return d, nil
}

// scenarioExamples collects one scenario's traces and extracts its
// examples.
func scenarioExamples(scn Scenario, cfg Config) ([]Example, error) {
	ts, err := CollectTraces(scn, cfg)
	if err != nil {
		return nil, err
	}
	return ExtractExamples(ts, cfg)
}
