package online

import (
	"fmt"
	"sync"

	"repro/internal/features"
	"repro/internal/oracle"
	"repro/internal/platform"
	"repro/internal/workload"
)

// Labeler answers DAgger expert queries: the soft labels the policy should
// have produced for one visited state. ok is false when the state carries
// nothing to learn (no scenario context, infeasible target, unknown
// benchmark) — a skip, not a failure.
type Labeler interface {
	Label(s Sample) (labels []float64, ok bool, err error)
}

// OracleLabeler queries internal/oracle on visited states: it rebuilds the
// (AoI, background) scenario from the sample, collects (and caches) the
// scenario's trace set, quantizes the visited QoS target and per-cluster
// VF requirements onto the oracle grid, and computes the Eq. (4) labels —
// the same implementation the offline dataset sweep uses.
//
// Trace collection is the expensive part (a warmup + measurement sim per
// grid point), so serving deployments run it on a quick-scale Config; the
// cache makes repeat visits to a scenario cheap.
type OracleLabeler struct {
	cfg oracle.Config

	mu       sync.Mutex
	cache    map[string]*oracle.TraceSet
	order    []string // FIFO eviction order
	maxCache int
}

// DefaultLabelCacheScenarios bounds the trace-set cache.
const DefaultLabelCacheScenarios = 32

// QuickLabelConfig returns an oracle Config scaled for online labeling:
// the coarse 3-level grid and short warmup/measure windows keep one
// uncached scenario query in the low seconds, at some label fidelity cost
// versus the offline DefaultConfig (override via ManagerConfig.Labeler for
// full-scale labeling).
func QuickLabelConfig() oracle.Config {
	cfg := oracle.DefaultConfig()
	cfg.LevelGrid = []int{0, 4, 8}
	cfg.WarmupSec = 10
	cfg.MeasureSec = 3
	cfg.Dt = 0.02
	return cfg
}

// NewOracleLabeler creates a labeler over the given oracle configuration.
func NewOracleLabeler(cfg oracle.Config) *OracleLabeler {
	return &OracleLabeler{
		cfg:      cfg,
		cache:    make(map[string]*oracle.TraceSet),
		maxCache: DefaultLabelCacheScenarios,
	}
}

// Label implements Labeler.
func (l *OracleLabeler) Label(s Sample) ([]float64, bool, error) {
	scn, sig, ok := l.scenarioFor(s)
	if !ok {
		return nil, false, nil
	}
	plat := platform.HiKey970()
	numCores, numClusters := plat.NumCores(), plat.NumClusters()
	if len(s.Features) != features.Dim(numCores, numClusters) ||
		len(s.ClusterFreqs) != numClusters || s.QoS <= 0 {
		return nil, false, nil
	}

	ts, err := l.traces(sig, scn)
	if err != nil {
		return nil, false, err
	}

	// Quantize the visited per-cluster VF requirements onto the oracle
	// grid: the recorded feature is required/current, the recorded
	// ClusterFreqs the current frequency — their product is the Eq. (2)
	// requirement in Hz.
	little, _ := plat.ClusterByKind(platform.Little)
	big, _ := plat.ClusterByKind(platform.Big)
	ratioOff := 3 + numCores
	li := oracle.GridPosFor(little, l.cfg.LevelGrid, s.Features[ratioOff+0]*s.ClusterFreqs[0])
	bi := oracle.GridPosFor(big, l.cfg.LevelGrid, s.Features[ratioOff+1]*s.ClusterFreqs[1])

	vl, ok, err := oracle.LabelVisited(ts, l.cfg, s.QoS, li, bi)
	if err != nil || !ok {
		return nil, false, err
	}
	return vl.Labels, true, nil
}

// scenarioFor rebuilds the oracle scenario a sample was visited in, plus a
// cache signature. ok is false when the sample carries no usable context:
// non-sim origins, unknown benchmarks, background collisions.
func (l *OracleLabeler) scenarioFor(s Sample) (oracle.Scenario, string, bool) {
	if s.Origin != OriginSim || s.AoI == "" {
		return oracle.Scenario{}, "", false
	}
	aoi, ok := workload.ByName(s.AoI)
	if !ok {
		return oracle.Scenario{}, "", false
	}
	plat := platform.HiKey970()
	scn := oracle.Scenario{AoI: aoi}
	seen := make(map[int]bool, len(s.Background))
	for _, b := range s.Background {
		spec, ok := workload.ByName(b.Name)
		if !ok || b.Core < 0 || b.Core >= plat.NumCores() || seen[b.Core] {
			return oracle.Scenario{}, "", false
		}
		seen[b.Core] = true
		scn.Background = append(scn.Background, oracle.BackgroundApp{
			Spec: spec, Core: platform.CoreID(b.Core),
		})
	}
	// Canonical signature: background sorted by core (insertion sort over
	// the handful of refs), so visit order does not split the cache.
	bg := scn.Background
	for i := 1; i < len(bg); i++ {
		for j := i; j > 0 && bg[j-1].Core > bg[j].Core; j-- {
			bg[j-1], bg[j] = bg[j], bg[j-1]
		}
	}
	if scn.Validate(plat.NumCores()) != nil {
		return oracle.Scenario{}, "", false
	}
	sig := s.AoI
	for _, b := range bg {
		sig += fmt.Sprintf("|%s@%d", b.Spec.Name, b.Core)
	}
	return scn, sig, true
}

// traces returns the scenario's trace set, collecting it on first use.
func (l *OracleLabeler) traces(sig string, scn oracle.Scenario) (*oracle.TraceSet, error) {
	l.mu.Lock()
	if ts := l.cache[sig]; ts != nil {
		l.mu.Unlock()
		return ts, nil
	}
	l.mu.Unlock()

	// Collect outside the lock; a duplicate concurrent collection is
	// wasted work but harmless (both results are identical).
	ts, err := oracle.CollectTraces(scn, l.cfg)
	if err != nil {
		return nil, fmt.Errorf("online: collecting traces for %s: %w", sig, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev := l.cache[sig]; prev != nil {
		return prev, nil
	}
	if len(l.order) >= l.maxCache {
		delete(l.cache, l.order[0])
		l.order = l.order[1:]
	}
	l.cache[sig] = ts
	l.order = append(l.order, sig)
	return ts, nil
}
