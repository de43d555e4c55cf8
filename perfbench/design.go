package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/oracle"
	"repro/internal/platform"
	"repro/internal/workload"
)

const (
	// designCanonical TrainingSet benchmarks contribute their canonical
	// scenario pair (empty and fully loaded background).
	designCanonical = 2
	// designEpochs is the fixed training budget (early stopping off).
	designEpochs = 16
)

// designBench builds the oracle dataset at the paper's DefaultConfig grid
// and trains the paper topology on it, once per pass. The seed picks the
// canonical benchmarks, the random scenarios (one per background size 0-6,
// so every seed costs about the same) and the training seed.
type designBench struct {
	seed  int64
	scns  []oracle.Scenario
	cfg   oracle.Config
	topo  []int
	train nn.TrainConfig
	// first holds the first pass's digests; every later pass must match.
	first *designDigest
}

type designDigest struct{ dataset, model string }

func (b *designBench) setup(seed int64) error {
	b.seed = seed
	b.first = nil
	pool := workload.TrainingSet()
	perm := rand.New(rand.NewSource(seed)).Perm(len(pool))
	var sub []string
	for _, i := range perm[:designCanonical] {
		sub = append(sub, pool[i])
	}
	canon, err := oracle.CanonicalScenarios(sub)
	if err != nil {
		return err
	}
	cands, err := oracle.RandomScenarios(256, pool, seed)
	if err != nil {
		return err
	}
	b.scns = canon
	plat := platform.HiKey970()
	for k := 0; k < plat.NumCores()-1; k++ {
		for _, s := range cands {
			if len(s.Background) == k {
				b.scns = append(b.scns, s)
				break
			}
		}
	}
	b.cfg = oracle.DefaultConfig()
	b.cfg.MaxExamplesPerScenario = 200
	b.topo = nnTopology()
	b.train = nn.TrainConfig{MaxEpochs: designEpochs, Patience: designEpochs + 1}

	// Warm the oracle and training code paths on the first scenario so the
	// first timed pass does not pay for them.
	ts, err := oracle.CollectTraces(b.scns[0], b.cfg)
	if err != nil {
		return err
	}
	ex, err := oracle.ExtractExamples(ts, b.cfg)
	if err != nil {
		return err
	}
	d := &oracle.Dataset{NumCores: plat.NumCores(), Examples: ex}
	_, _, err = core.TrainModel(d, b.topo, seed, nn.TrainConfig{MaxEpochs: 1})
	return err
}

func (b *designBench) close() {}

// designStats accumulates the traced passes' layer figures.
type designStats struct {
	collect, extract, train time.Duration
	scenarios, examples     int
	epochs, trainRows       int
}

func (b *designBench) measure(rec *recorder, seconds float64, o *outcome) (measurement, error) {
	var m measurement
	var st designStats
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds()+m.ops.median()/1e3 <= seconds; pass++ {
		t0 := time.Now()
		d, model, res, err := b.pass(rec, pass, &st)
		if err != nil {
			return m, err
		}
		m.ops = append(m.ops, float64(time.Since(t0))/float64(time.Millisecond))
		b.verify(d, model, res, o)
	}
	m.facets = map[string]float64{"design_s": m.ops.median() / 1e3}
	if rec != nil {
		n := float64(len(m.ops))
		m.layers = map[string]float64{
			"oracle.collect_s":    st.collect.Seconds() / n,
			"oracle.extract_s":    st.extract.Seconds() / n,
			"oracle.scenarios":    float64(st.scenarios) / n,
			"oracle.examples":     float64(st.examples) / n,
			"nn.train_s":          st.train.Seconds() / n,
			"nn.train_epochs":     float64(st.epochs) / n,
			"nn.train_rows_per_s": float64(st.trainRows) / st.train.Seconds(),
		}
	}
	return m, nil
}

// pass runs the design pipeline once. Untraced it calls BuildDataset;
// traced it makes the same CollectTraces/ExtractExamples calls per
// scenario so each can be timed.
func (b *designBench) pass(rec *recorder, pass int, st *designStats) (*oracle.Dataset, *nn.MLP, nn.TrainResult, error) {
	var d *oracle.Dataset
	var err error
	group := fmt.Sprintf("design/pass%d", pass)
	root := rec.begin(group, "design.pass", -1)
	if rec == nil {
		d, err = oracle.BuildDataset(b.scns, b.cfg, nil)
		if err != nil {
			return nil, nil, nn.TrainResult{}, err
		}
	} else {
		d = &oracle.Dataset{NumCores: platform.HiKey970().NumCores()}
		for _, scn := range b.scns {
			t0 := time.Now()
			sp := rec.begin(group, "oracle.collect", root)
			ts, err := oracle.CollectTraces(scn, b.cfg)
			rec.finish(sp)
			t1 := time.Now()
			if err != nil {
				return nil, nil, nn.TrainResult{}, err
			}
			sp = rec.begin(group, "oracle.extract", root)
			ex, err := oracle.ExtractExamples(ts, b.cfg)
			rec.finish(sp)
			if err != nil {
				return nil, nil, nn.TrainResult{}, err
			}
			st.collect += t1.Sub(t0)
			st.extract += time.Since(t1)
			d.Examples = append(d.Examples, ex...)
		}
		st.scenarios += len(b.scns)
		st.examples += d.Len()
	}
	t0 := time.Now()
	sp := rec.begin(group, "nn.train", root)
	model, res, err := core.TrainModel(d, b.topo, b.seed, b.train)
	rec.finish(sp)
	rec.finish(root)
	if rec != nil {
		st.train += time.Since(t0)
		st.epochs += res.Epochs
		st.trainRows += res.Epochs * (d.Len() - int(0.2*float64(d.Len())))
	}
	return d, model, res, err
}

// verify checks one pass's outputs: the structure always, the digests
// against the run's first pass and, for the default seed, against the
// recorded reference.
func (b *designBench) verify(d *oracle.Dataset, model *nn.MLP, res nn.TrainResult, o *outcome) {
	in, out := b.topo[0], b.topo[len(b.topo)-1]
	shapeOK := d.Len() > 0
	for _, e := range d.Examples {
		shapeOK = shapeOK && len(e.Features) == in && len(e.Labels) == out
	}
	o.check(shapeOK, "design: dataset of %d examples has malformed rows", d.Len())
	o.check(res.Epochs == designEpochs && !math.IsNaN(res.BestValLoss) && !math.IsInf(res.BestValLoss, 0),
		"design: training ran %d of %d epochs, best val loss %g", res.Epochs, designEpochs, res.BestValLoss)
	dg := designDigest{dataset: digestJSON(d), model: digestJSON(model)}
	if b.first == nil {
		b.first = &dg
		fmt.Printf("digest design seed %d: dataset=%s model=%s\n", b.seed, dg.dataset, dg.model)
		if ref, ok := references["design"][b.seed]; ok {
			o.check(dg.dataset+" "+dg.model == ref, "design: digests %s %s differ from the reference %s",
				dg.dataset, dg.model, ref)
		}
		return
	}
	o.check(dg == *b.first, "design: pass digests %+v differ from the first pass %+v", dg, *b.first)
}

// digestJSON hashes the JSON encoding of v (floats encode exactly).
func digestJSON(v interface{}) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digestBytes(data)
}

func digestBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
