// Package experiments reproduces every figure of the paper's evaluation on
// the simulated platform. Each FigNN function runs one experiment at a
// configurable scale and returns a structured result with a Render method
// printing the same rows/series the paper reports, and Catalogue lists the
// whole figure suite in report order. The cmd/topil-experiments tool and
// the repository's bench harness are thin wrappers around this package.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/oracle"
	"repro/internal/perf"
	"repro/internal/platform"
	"repro/internal/rl"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Scale controls experiment sizes. FullScale approximates the paper's
// setup (compressed in simulated time); QuickScale runs every experiment in
// seconds for tests and smoke runs.
type Scale struct {
	Name string

	// Design time.
	Seeds           []int64 // model/policy seeds (paper: three)
	OracleScenarios int     // random (AoI, background) combinations
	OracleCfg       oracle.Config
	TrainCfg        nn.TrainConfig
	RLPretrain      rl.PretrainConfig

	// Run time.
	MixedJobs    int       // applications in the mixed workload (paper: 20)
	ArrivalRates []float64 // jobs per second
	RunCap       float64   // simulated seconds per evaluation run
	InstrScale   float64   // application length scaling
	TAmb         float64
}

// FullScale approximates the paper's experiment sizes.
func FullScale() Scale {
	ocfg := oracle.DefaultConfig()
	// Match the paper's dataset scale (19,831 examples from 100 combos).
	ocfg.MaxExamplesPerScenario = 200
	return Scale{
		Name:            "full",
		Seeds:           []int64{1, 2, 3},
		OracleScenarios: 100,
		OracleCfg:       ocfg,
		TrainCfg:        nn.TrainConfig{MaxEpochs: 150, Patience: 30, LRDecay: 0.98},
		RLPretrain:      rl.DefaultPretrainConfig(1),
		MixedJobs:       20,
		ArrivalRates:    []float64{0.02, 0.04, 0.08, 0.16},
		RunCap:          1800,
		InstrScale:      1.0,
		TAmb:            25,
	}
}

// QuickScale shrinks everything for smoke tests and benches.
func QuickScale() Scale {
	ocfg := oracle.QuickConfig()
	ocfg.QoSFracs = []float64{0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45,
		0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9}
	pre := rl.DefaultPretrainConfig(1)
	pre.DurationSec = 200
	pre.NumJobs = 30
	pre.ArrivalRate = 0.25
	return Scale{
		Name:            "quick",
		Seeds:           []int64{1},
		OracleScenarios: 10,
		OracleCfg:       ocfg,
		TrainCfg:        nn.TrainConfig{MaxEpochs: 220, Patience: 50, LRDecay: 0.985},
		RLPretrain:      pre,
		MixedJobs:       10,
		ArrivalRates:    []float64{0.05, 0.2},
		RunCap:          400,
		InstrScale:      0.15,
		TAmb:            25,
	}
}

// Pipeline lazily builds and caches the design-time artifacts shared by the
// run-time experiments: the oracle dataset, one trained IL model per seed,
// and one pretrained RL Q-table per seed.
type Pipeline struct {
	Scale Scale

	// ArtifactsDir, when set, persists the design-time artifacts
	// (dataset.json.gz, model-<seed>.json, qtable-<seed>.json.gz) and
	// reuses them across processes — trace collection and training are
	// by far the most expensive steps, exactly as on the paper's board.
	ArtifactsDir string

	// Workers bounds RunMatrix concurrency; zero means GOMAXPROCS.
	// Results are deterministic at any setting — see RunMatrix.
	Workers int

	// Telemetry, when set, receives the sim_* families of every engine the
	// pipeline builds (counters sum across cells; sums are order-free, so
	// the exported values do not depend on worker count) plus the
	// executor's experiments_* rollups.
	Telemetry *telemetry.Registry

	// Traces, when set, collects one sim-time tracer per run-matrix cell.
	// Cell tracer names derive from the cell's identity — never from
	// dispatch order — and TraceSet output is sorted by name, so the
	// rendered Chrome trace is byte-identical at any worker count.
	Traces *telemetry.TraceSet

	mu      sync.Mutex
	dataset *oracle.Dataset
	models  []*nn.MLP
	qtables []*rl.QTable
	perf    perf.Model
	plat    *platform.Platform

	// Progress, if set, receives coarse progress messages. Calls are
	// serialized (progressMu), so the callback may write to a shared
	// sink without its own locking even during parallel fan-out.
	Progress func(msg string)

	progressMu sync.Mutex

	saveMu  sync.Mutex
	saveErr error // first failed artifact save
}

// NewPipeline creates a pipeline at the given scale.
func NewPipeline(s Scale) *Pipeline {
	return &Pipeline{Scale: s, perf: perf.Default(), plat: platform.HiKey970()}
}

func (p *Pipeline) progress(format string, args ...interface{}) {
	if p.Progress == nil {
		return
	}
	p.progressMu.Lock()
	defer p.progressMu.Unlock()
	p.Progress(fmt.Sprintf(format, args...))
}

// Dataset returns the oracle dataset, building it on first use: canonical
// scenarios (empty and fully-loaded background per training benchmark) plus
// Scale.OracleScenarios random combinations.
func (p *Pipeline) Dataset() (*oracle.Dataset, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.datasetLocked()
}

func (p *Pipeline) datasetLocked() (*oracle.Dataset, error) {
	if p.dataset != nil {
		return p.dataset, nil
	}
	if path, ok := p.artifact("dataset.json.gz"); ok {
		d, err := oracle.Load(path)
		if err == nil {
			p.progress("oracle: loaded %d examples from %s", d.Len(), path)
			p.dataset = d
			return d, nil
		}
		p.progress("oracle: cache %s unusable (%v), rebuilding", path, err)
	}
	pool := workload.TrainingSet()
	canon, err := oracle.CanonicalScenarios(pool)
	if err != nil {
		return nil, err
	}
	rnd, err := oracle.RandomScenarios(p.Scale.OracleScenarios, pool, 11)
	if err != nil {
		return nil, err
	}
	scns := append(canon, rnd...)
	p.progress("oracle: collecting traces for %d scenarios", len(scns))
	d, err := oracle.BuildDataset(scns, p.Scale.OracleCfg, func(done, total int) {
		if done%10 == 0 || done == total {
			p.progress("oracle: scenario %d/%d", done, total)
		}
	})
	if err != nil {
		return nil, err
	}
	p.progress("oracle: %d training examples", d.Len())
	p.saveArtifact("dataset.json.gz", func(path string) error { return d.Save(path) })
	p.dataset = d
	return d, nil
}

// artifact returns the path of a named artifact and whether it exists.
func (p *Pipeline) artifact(name string) (string, bool) {
	if p.ArtifactsDir == "" {
		return "", false
	}
	path := filepath.Join(p.ArtifactsDir, name)
	_, err := os.Stat(path)
	return path, err == nil
}

// saveArtifact persists a named artifact if ArtifactsDir is configured. A
// failed save never aborts an experiment; the first one is kept for
// ArtifactErr.
func (p *Pipeline) saveArtifact(name string, save func(path string) error) {
	if p.ArtifactsDir == "" {
		return
	}
	path := filepath.Join(p.ArtifactsDir, name)
	err := os.MkdirAll(p.ArtifactsDir, 0o755)
	if err == nil {
		err = save(path)
	}
	if err != nil {
		err = fmt.Errorf("artifacts: saving %s: %w", path, err)
		p.progress("%v", err)
		p.saveMu.Lock()
		defer p.saveMu.Unlock()
		if p.saveErr == nil {
			p.saveErr = err
		}
		return
	}
	p.progress("artifacts: saved %s", path)
}

// ArtifactErr returns the pipeline's first failed artifact save, naming
// the path, or nil. A command that caches artifacts fails on it, since a
// run that could not write its cache has not done what it was asked.
func (p *Pipeline) ArtifactErr() error {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	return p.saveErr
}

// Models returns one trained IL model per seed, training on first use. It
// is the only place the pipeline trains its models: cached
// model-<seed>.json artifacts load first, and the missing seeds train as one
// ordered run matrix on the oracle dataset, which is built only then. The
// cells only read the dataset and call no Pipeline method that takes p.mu,
// so they run in parallel under the lock.
func (p *Pipeline) Models() ([]*nn.MLP, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.models != nil {
		return p.models, nil
	}
	topo := p.topology()
	models := make([]*nn.MLP, len(p.Scale.Seeds))
	var missing []int
	for i, seed := range p.Scale.Seeds {
		if path, ok := p.artifact(modelArtifact(seed)); ok {
			m, err := core.LoadModel(path, topo[0], topo[len(topo)-1])
			if err == nil {
				p.progress("loaded IL model (seed %d) from %s", seed, path)
				models[i] = m
				continue
			}
			p.progress("model cache %s unusable (%v), retraining", path, err)
		}
		missing = append(missing, i)
	}
	if len(missing) > 0 {
		d, err := p.datasetLocked()
		if err != nil {
			return nil, err
		}
		specs := make([]RunSpec[*nn.MLP], len(missing))
		for j, i := range missing {
			seed := p.Scale.Seeds[i]
			specs[j] = RunSpec[*nn.MLP]{
				Tag: fmt.Sprintf("seed%d", seed),
				Run: func() (*nn.MLP, error) {
					p.progress("training IL model (seed %d)", seed)
					m, res, err := core.TrainModel(d, topo, seed, p.Scale.TrainCfg)
					if err != nil {
						return nil, err
					}
					p.progress("model seed %d: val loss %.4f after %d epochs", seed, res.BestValLoss, res.Epochs)
					p.saveArtifact(modelArtifact(seed), func(path string) error { return core.SaveModel(m, path) })
					return m, nil
				},
			}
		}
		cells, err := RunMatrix(p, "models", specs)
		if err != nil {
			return nil, err
		}
		for j, i := range missing {
			models[i] = cells[j].Value
		}
	}
	p.models = models
	return models, nil
}

func modelArtifact(seed int64) string { return fmt.Sprintf("model-%d.json", seed) }

// topology is the paper's IL network for the pipeline's platform.
func (p *Pipeline) topology() []int {
	return nn.PaperTopology(features.Dim(p.plat.NumCores(), p.plat.NumClusters()),
		p.plat.NumCores())
}

// QTables returns one pretrained RL table per seed, pretraining on first
// use.
func (p *Pipeline) QTables() ([]*rl.QTable, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.qtables != nil {
		return p.qtables, nil
	}
	var tables []*rl.QTable
	for _, seed := range p.Scale.Seeds {
		name := fmt.Sprintf("qtable-%d.json.gz", seed)
		if path, ok := p.artifact(name); ok {
			t, err := rl.LoadQTable(path)
			if err == nil {
				p.progress("loaded RL Q-table (seed %d) from %s", seed, path)
				tables = append(tables, t)
				continue
			}
			p.progress("qtable cache %s unusable (%v), repretraining", path, err)
		}
		p.progress("pretraining RL policy (seed %d)", seed)
		t := rl.NewQTable(p.plat.NumCores())
		cfg := p.Scale.RLPretrain
		cfg.Seed = seed
		if err := rl.Pretrain(t, rl.DefaultParams(), cfg); err != nil {
			return nil, err
		}
		p.saveArtifact(name, func(path string) error { return t.Save(path) })
		tables = append(tables, t)
	}
	p.qtables = tables
	return tables, nil
}

// Techniques returns the evaluation order used throughout the paper.
func Techniques() []string {
	return []string{"TOP-IL", "TOP-RL", "GTS/ondemand", "GTS/powersave"}
}

// cloneQTable deep-copies a table so a run's online learning does not leak
// into other runs (the paper reloads the stored table per run).
func cloneQTable(t *rl.QTable) *rl.QTable {
	c := rl.NewQTable(t.NumCores)
	for s := range t.Q {
		copy(c.Q[s], t.Q[s])
	}
	return c
}

// Source returns the policy-registry source for seed index seedIdx: the
// trained model and a private copy of the pretrained Q-table, each built on
// first use.
func (p *Pipeline) Source(seedIdx int) scenario.Source {
	return scenario.Source{
		Model: func() (*nn.MLP, error) {
			models, err := p.Models()
			if err != nil {
				return nil, err
			}
			return models[seedIdx], nil
		},
		QTable: func() (*rl.QTable, error) {
			tables, err := p.QTables()
			if err != nil {
				return nil, err
			}
			return cloneQTable(tables[seedIdx]), nil
		},
		RLSeed: p.Scale.Seeds[seedIdx],
	}
}

// Manager instantiates a technique for one run on the default NPU backend.
// seedIdx selects the model / Q-table (and RNG seed for RL).
func (p *Pipeline) Manager(technique string, seedIdx int) (sim.Manager, error) {
	return scenario.NewManager(technique, "npu", p.Source(seedIdx))
}

// PeakIPS exposes the performance model's peak-IPS helper for workload
// generation.
func (p *Pipeline) PeakIPS(spec workload.AppSpec) float64 {
	return p.perf.PeakIPS(p.plat, spec)
}

// newEngine builds an evaluation engine. trace names the cell in the
// pipeline's TraceSet; it must identify the cell (technique, seed,
// scenario...), not its dispatch order.
func (p *Pipeline) newEngine(trace string, fan bool, seed int64) *sim.Engine {
	cfg := sim.DefaultConfig(fan, p.Scale.TAmb)
	cfg.Seed = seed
	cfg.Telemetry = p.Telemetry
	if p.Traces != nil && trace != "" {
		cfg.Tracer = p.Traces.Tracer(trace)
	}
	return sim.New(cfg)
}
