package online

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/nn"
)

// Publisher is the model registry surface the manager drives: publish a
// retrained candidate, stage it as shadow, atomically promote it.
// internal/serve implements it over its versioned registry; tests
// implement it in-memory. The manager never imports serve — the dependency
// points the other way.
type Publisher interface {
	// Publish registers a new immutable version and returns its number.
	Publish(m *nn.MLP) (int, error)
	// Swap atomically makes version active.
	Swap(version int) error
	// SetShadow stages version for live-traffic mirroring.
	SetShadow(version int) error
	// ClearShadow unstages any shadow version.
	ClearShadow()
	// ActiveVersion returns the currently active version.
	ActiveVersion() (int, error)
	// ActiveModel returns the currently active network (the warm-start
	// incumbent for retraining).
	ActiveModel() (*nn.MLP, error)
}

// ManagerConfig configures the continual-learning manager.
type ManagerConfig struct {
	// Model is the served model name (label on all online_* metrics).
	Model string
	// Publisher is the registry the manager publishes into. Required.
	Publisher Publisher
	// Labeler answers DAgger expert queries. Required.
	Labeler Labeler
	// Log is the durable visited-state record. Required.
	Log *SampleLog
	// Seed drives every stochastic choice (labeled-example reservoir,
	// train/val splits, replay scenarios).
	Seed int64
	// Workers bounds labeling parallelism per cycle (default
	// GOMAXPROCS). The aggregated dataset is identical for any worker
	// count.
	Workers int
	// MinNewSamples is the number of freshly labeled examples required
	// before a cycle retrains (default 8).
	MinNewSamples int
	// DatasetCap bounds the aggregated dataset (reservoir; default
	// DefaultSampleCap).
	DatasetCap int
	// Train retrains the policy (default DefaultTrain(DefaultTrainConfig())).
	Train TrainFunc
	// Replay scores candidate and incumbent for the promotion gate
	// (default SimReplay(20, 2)).
	Replay ReplayFunc
	// Gate is the promotion policy (unset fields take defaults).
	Gate GateConfig
	// Metrics receives the online_* series (default: a private registry).
	Metrics *Metrics
}

// candidateState tracks the currently shadow-staged candidate.
type candidateState struct {
	version     int
	model       *nn.MLP
	comparisons uint64
	agree       uint64
}

// Manager runs the DAgger loop: drain newly visited states, query the
// expert on them, aggregate, retrain off the request path, shadow-score
// the candidate on live traffic, and promote (or reject) it through the
// Publisher. All methods are safe for concurrent use; RunCycle and
// TryPromote are intended to be driven by a single loop goroutine.
type Manager struct {
	cfg     ManagerConfig
	gate    GateConfig
	metrics *Metrics

	mu           sync.Mutex
	lastSeq      uint64 // highest sample Seq folded into a cycle
	agg          nn.Dataset
	aggSeen      uint64 // lifetime labeled examples (reservoir index)
	cycle        int
	candidate    candidateState
	hasCandidate bool
	lastCycle    int64 // unix seconds of the last completed cycle
}

// datasetSeedTag decorrelates the dataset reservoir from the sample-log
// reservoir when both derive from the same configured seed.
const datasetSeedTag = 0x6f6e6c696e65 // "online"

// NewManager validates the configuration and builds a manager.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Publisher == nil {
		return nil, fmt.Errorf("online: ManagerConfig.Publisher is required")
	}
	if cfg.Labeler == nil {
		return nil, fmt.Errorf("online: ManagerConfig.Labeler is required")
	}
	if cfg.Log == nil {
		return nil, fmt.Errorf("online: ManagerConfig.Log is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MinNewSamples <= 0 {
		cfg.MinNewSamples = 8
	}
	if cfg.DatasetCap <= 0 {
		cfg.DatasetCap = DefaultSampleCap
	}
	if cfg.Train == nil {
		cfg.Train = DefaultTrain(DefaultTrainConfig())
	}
	if cfg.Replay == nil {
		cfg.Replay = SimReplay(20, 2)
	}
	m := &Manager{cfg: cfg, gate: cfg.Gate.withDefaults(), metrics: cfg.Metrics}
	if m.metrics == nil {
		m.metrics = NewMetrics(nil, cfg.Model)
	}
	return m, nil
}

// Record appends one visited state to the durable sample log.
func (m *Manager) Record(s Sample) error {
	if _, err := m.cfg.Log.Append(s); err != nil {
		return err
	}
	m.metrics.Recorded.Inc()
	return nil
}

// labelResult is one slot of a cycle's parallel labeling pass.
type labelResult struct {
	labels []float64
	ok     bool
	err    error
}

// RunCycle executes one DAgger iteration at the given wall-clock instant
// (passed in — the manager itself never reads the clock): drain samples
// recorded since the last cycle, label them via the expert, fold them into
// the aggregated dataset, and — once enough new examples accumulated —
// retrain, publish and stage the candidate as shadow. A failed retrain
// increments online_train_failures and leaves serving untouched.
func (m *Manager) RunCycle(nowUnix int64) error {
	m.mu.Lock()
	last := m.lastSeq
	m.mu.Unlock()
	batch := m.cfg.Log.Since(last)

	// Label in parallel; results land in per-sample slots so the merge
	// order — and therefore the aggregated dataset — is byte-identical
	// for any worker count.
	results := make([]labelResult, len(batch))
	if len(batch) > 0 {
		workers := m.cfg.Workers
		if workers > len(batch) {
			workers = len(batch)
		}
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					labels, ok, err := m.label(batch[i])
					results[i] = labelResult{labels: labels, ok: ok, err: err}
				}
			}()
		}
		for i := range batch {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	m.mu.Lock()
	m.lastCycle = nowUnix
	newLabeled := 0
	for i, r := range results {
		if s := batch[i]; s.Seq > m.lastSeq {
			m.lastSeq = s.Seq
		}
		switch {
		case r.err != nil:
			m.metrics.LabelFailures.Inc()
		case !r.ok:
			m.metrics.Skipped.Inc()
		default:
			m.addExampleLocked(batch[i].Features, r.labels)
			m.metrics.Labeled.Inc()
			newLabeled++
		}
	}
	m.metrics.DatasetSize.Set(float64(m.agg.Len()))
	if newLabeled < m.cfg.MinNewSamples || m.hasCandidate {
		// Not enough fresh signal, or a candidate is still under shadow
		// evaluation — train at most one candidate at a time.
		m.mu.Unlock()
		return nil
	}
	m.cycle++
	cycle := m.cycle
	// Snapshot the aggregate so training runs without the lock (rows are
	// immutable once inserted; the reservoir replaces whole rows, so the
	// copied headers stay coherent). Status and shadow scoring keep flowing
	// while the retrain grinds.
	ds := nn.Dataset{
		X: append([][]float64(nil), m.agg.X...),
		Y: append([][]float64(nil), m.agg.Y...),
	}
	m.mu.Unlock()

	m.metrics.TrainCycles.Inc()
	incumbent, err := m.cfg.Publisher.ActiveModel()
	if err != nil {
		m.metrics.TrainFailures.Inc()
		return fmt.Errorf("online: loading incumbent: %w", err)
	}
	cand, err := m.train(incumbent, ds, cycle)
	if err != nil {
		m.metrics.TrainFailures.Inc()
		return err
	}
	ver, err := m.cfg.Publisher.Publish(cand)
	if err != nil {
		m.metrics.TrainFailures.Inc()
		return fmt.Errorf("online: publishing candidate: %w", err)
	}
	m.metrics.Publishes.Inc()
	if err := m.cfg.Publisher.SetShadow(ver); err != nil {
		m.metrics.TrainFailures.Inc()
		return fmt.Errorf("online: staging shadow: %w", err)
	}
	m.mu.Lock()
	m.candidate = candidateState{version: ver, model: cand}
	m.hasCandidate = true
	m.mu.Unlock()
	return nil
}

// label wraps the Labeler, converting panics into errors.
func (m *Manager) label(s Sample) (labels []float64, ok bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			labels, ok = nil, false
			err = fmt.Errorf("online: labeler panicked: %v", p)
		}
	}()
	return m.cfg.Labeler.Label(s)
}

// train wraps the TrainFunc, converting panics into errors.
func (m *Manager) train(incumbent *nn.MLP, ds nn.Dataset, cycle int) (cand *nn.MLP, err error) {
	defer func() {
		if p := recover(); p != nil {
			cand, err = nil, fmt.Errorf("online: training panicked: %v", p)
		}
	}()
	cand, err = m.cfg.Train(incumbent, ds, m.cfg.Seed+int64(cycle))
	if err == nil && cand == nil {
		err = fmt.Errorf("online: TrainFunc returned no model")
	}
	return cand, err
}

// replay wraps the ReplayFunc, converting panics into errors.
func (m *Manager) replay(model *nn.MLP, seed int64) (rm ReplayMetrics, err error) {
	defer func() {
		if p := recover(); p != nil {
			rm, err = ReplayMetrics{}, fmt.Errorf("online: replay panicked: %v", p)
		}
	}()
	return m.cfg.Replay(model, seed)
}

// trainFailure records an asynchronous training-path failure (the loop's
// panic backstop).
func (m *Manager) trainFailure() { m.metrics.TrainFailures.Inc() }

// addExampleLocked folds one labeled example into the bounded aggregated
// dataset (reservoir over the lifetime labeled stream). Callers hold m.mu.
func (m *Manager) addExampleLocked(x, y []float64) {
	m.aggSeen++
	x = append([]float64(nil), x...)
	y = append([]float64(nil), y...)
	if m.agg.Len() < m.cfg.DatasetCap {
		m.agg.X = append(m.agg.X, x)
		m.agg.Y = append(m.agg.Y, y)
		return
	}
	if slot := reservoirSlot(m.cfg.Seed^datasetSeedTag, m.aggSeen, m.cfg.DatasetCap); slot >= 0 {
		m.agg.X[slot] = x
		m.agg.Y[slot] = y
	}
}

// ObserveShadow scores one mirrored batch: for every row, does the shadow
// candidate's argmax action agree with the incumbent's? Batches mirrored
// for a version other than the current candidate (stale in-flight batches
// around a promotion) are ignored.
func (m *Manager) ObserveShadow(activeVer, shadowVer int, active, shadow [][]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.hasCandidate || shadowVer != m.candidate.version || len(active) != len(shadow) {
		return
	}
	for i := range active {
		m.candidate.comparisons++
		m.metrics.ShadowRows.Inc()
		if argmax(active[i]) == argmax(shadow[i]) {
			m.candidate.agree++
			m.metrics.ShadowAgree.Inc()
		}
	}
}

// argmax returns the index of the largest element (first on ties, -1 when
// empty) — the action a rating vector selects.
func argmax(v []float64) int {
	best := -1
	for i, x := range v {
		if best < 0 || x > v[best] {
			best = i
		}
	}
	return best
}

// TryPromote judges the current candidate once its shadow window is full:
// reject on low live-traffic agreement, otherwise replay candidate and
// incumbent side by side under identical seeds and promote only if the
// candidate does not regress QoS violations or peak temperature beyond the
// gate deltas. A replay that fails or panics rejects the candidate.
// Returns whether a promotion happened.
func (m *Manager) TryPromote() (bool, error) {
	m.mu.Lock()
	if !m.hasCandidate || m.candidate.comparisons < uint64(m.gate.Window) {
		m.mu.Unlock()
		return false, nil
	}
	cand := m.candidate
	agreement := float64(cand.agree) / float64(cand.comparisons)
	m.mu.Unlock()

	if agreement < m.gate.MinAgreement {
		m.rejectCandidate(cand.version)
		return false, nil
	}

	// Replay outside the lock: a simulated window takes real time and
	// ObserveShadow runs on the serving path. The two replays are
	// independent, so the incumbent's runs on its own goroutine.
	incumbent, err := m.cfg.Publisher.ActiveModel()
	if err != nil {
		m.rejectCandidate(cand.version)
		return false, fmt.Errorf("online: loading incumbent for replay: %w", err)
	}
	seed := m.cfg.Seed ^ splitmix(uint64(cand.version))
	var incMetrics ReplayMetrics
	var incErr error
	incDone := make(chan struct{})
	go func() {
		defer close(incDone)
		incMetrics, incErr = m.replay(incumbent, seed)
	}()
	candMetrics, err := m.replay(cand.model, seed)
	<-incDone
	if err != nil {
		m.rejectCandidate(cand.version)
		return false, fmt.Errorf("online: replaying candidate v%d: %w", cand.version, err)
	}
	if incErr != nil {
		m.rejectCandidate(cand.version)
		return false, fmt.Errorf("online: replaying incumbent: %w", incErr)
	}
	if candMetrics.ViolationFrac > incMetrics.ViolationFrac+m.gate.MaxQoSDelta ||
		candMetrics.PeakTemp > incMetrics.PeakTemp+m.gate.MaxTempDelta {
		m.rejectCandidate(cand.version)
		return false, nil
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.hasCandidate || m.candidate.version != cand.version {
		return false, nil
	}
	if err := m.cfg.Publisher.Swap(cand.version); err != nil {
		return false, fmt.Errorf("online: promoting v%d: %w", cand.version, err)
	}
	m.hasCandidate = false
	m.candidate = candidateState{}
	m.metrics.Promotions.Inc()
	return true, nil
}

// rejectCandidate unstages and discards the candidate identified by version.
func (m *Manager) rejectCandidate(version int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.hasCandidate || m.candidate.version != version {
		return
	}
	m.cfg.Publisher.ClearShadow()
	m.hasCandidate = false
	m.candidate = candidateState{}
	m.metrics.Rejected.Inc()
}

// Status is the /v1/online wire surface.
type Status struct {
	Enabled            bool    `json:"enabled"`
	Model              string  `json:"model"`
	ActiveVersion      int     `json:"activeVersion"`
	CandidateVersion   int     `json:"candidateVersion"`
	SamplesRecorded    uint64  `json:"samplesRecorded"`
	SamplesLabeled     uint64  `json:"samplesLabeled"`
	SamplesSkipped     uint64  `json:"samplesSkipped"`
	LabelFailures      uint64  `json:"labelFailures"`
	DatasetSize        int     `json:"datasetSize"`
	TrainCycles        uint64  `json:"trainCycles"`
	TrainFailures      uint64  `json:"trainFailures"`
	Promotions         uint64  `json:"promotions"`
	CandidatesRejected uint64  `json:"candidatesRejected"`
	ShadowComparisons  uint64  `json:"shadowComparisons"`
	ShadowAgreement    float64 `json:"shadowAgreement"`
	LastCycleUnix      int64   `json:"lastCycleUnix"`
}

// Status snapshots the manager for the /v1/online endpoint.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Enabled:            true,
		Model:              m.cfg.Model,
		SamplesRecorded:    uint64(m.metrics.Recorded.Value()),
		SamplesLabeled:     uint64(m.metrics.Labeled.Value()),
		SamplesSkipped:     uint64(m.metrics.Skipped.Value()),
		LabelFailures:      uint64(m.metrics.LabelFailures.Value()),
		DatasetSize:        m.agg.Len(),
		TrainCycles:        uint64(m.metrics.TrainCycles.Value()),
		TrainFailures:      uint64(m.metrics.TrainFailures.Value()),
		Promotions:         uint64(m.metrics.Promotions.Value()),
		CandidatesRejected: uint64(m.metrics.Rejected.Value()),
		LastCycleUnix:      m.lastCycle,
	}
	if m.hasCandidate {
		st.CandidateVersion = m.candidate.version
		st.ShadowComparisons = m.candidate.comparisons
		if m.candidate.comparisons > 0 {
			st.ShadowAgreement = float64(m.candidate.agree) / float64(m.candidate.comparisons)
		}
	}
	if v, err := m.cfg.Publisher.ActiveVersion(); err == nil {
		st.ActiveVersion = v
	}
	return st
}

// Dataset returns a deep copy of the aggregated dataset (test hook for the
// worker-count determinism golden).
func (m *Manager) Dataset() nn.Dataset {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ds nn.Dataset
	for i := range m.agg.X {
		ds.X = append(ds.X, append([]float64(nil), m.agg.X[i]...))
		ds.Y = append(ds.Y, append([]float64(nil), m.agg.Y[i]...))
	}
	return ds
}
