package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/online"
	"repro/internal/oracle"
	"repro/internal/serve"
	"repro/internal/workload"
)

const (
	// onlineCycles is the number of DAgger cycles per episode. Every
	// episode starts a fresh server, so the labeler cache and the
	// aggregated dataset grow over the episode's cycles as in service.
	onlineCycles = 4
	// shadowWindow is the gate's shadow window in rows.
	shadowWindow = 64
	// onlineEpochs is the retraining budget per candidate.
	onlineEpochs = 30
)

// onlineBench drives the continual learner of one in-process server
// (Online.Enabled, a TrainInterval longer than any run) cycle by cycle:
// a seeded TOP-IL /v1/sim job records visited states, RunCycle labels
// them and retrains, /v1/infer traffic fills the shadow window, and
// TryPromote replays and swaps.
type onlineBench struct {
	seed      int64
	incumbent *nn.MLP     // the policy every episode starts from
	rows      [][]float64 // oracle feature rows the infer traffic replays
	first     string      // the run's first episode outcome
}

// setup trains the incumbent policy: a quick-grid oracle dataset over the
// canonical scenarios of two seeded training benchmarks, a few epochs.
func (b *onlineBench) setup(seed int64) error {
	b.seed = seed
	b.first = ""
	pool := workload.TrainingSet()
	perm := rand.New(rand.NewSource(seed)).Perm(len(pool))
	scns, err := oracle.CanonicalScenarios([]string{pool[perm[0]], pool[perm[1]]})
	if err != nil {
		return err
	}
	d, err := oracle.BuildDataset(scns, experiments.QuickScale().OracleCfg, nil)
	if err != nil {
		return err
	}
	m, _, err := core.TrainModel(d, nnTopology(), seed, nn.TrainConfig{MaxEpochs: 8, Patience: 9})
	if err != nil {
		return err
	}
	b.incumbent = m
	b.rows = d.ToNN().X
	return nil
}

func (b *onlineBench) close() {}

// onlineStats accumulates the traced episodes' layer figures.
type onlineStats struct {
	record, promote                          time.Duration
	label, train                             busy
	labeled, skipped, promotions, shadowRows uint64
}

func (b *onlineBench) measure(rec *recorder, seconds float64, o *outcome) (measurement, error) {
	var m measurement
	var st onlineStats
	episodes := 0
	start := time.Now()
	for ep := 0; ep == 0 || time.Since(start).Seconds()+m.ops.median()/1e3*onlineCycles <= seconds; ep++ {
		outcome, err := b.episode(rec, ep, &m, &st)
		if err != nil {
			return m, err
		}
		episodes++
		b.verify(outcome, o)
	}
	m.facets = map[string]float64{"dagger_cycle_s": m.ops.median() / 1e3}
	if rec != nil {
		n := float64(len(m.ops) * onlineCycles)
		labelD, _, _ := st.label.snapshot()
		trainD, _, _ := st.train.snapshot()
		m.layers = map[string]float64{
			"online.record_s":    st.record.Seconds() / n,
			"online.label_s":     labelD.Seconds() / n,
			"online.train_s":     trainD.Seconds() / n,
			"online.promote_s":   st.promote.Seconds() / n,
			"online.labeled":     float64(st.labeled) / n,
			"online.skipped":     float64(st.skipped) / n,
			"online.shadow_rows": float64(st.shadowRows) / n,
			"online.promotions":  float64(st.promotions) / float64(episodes),
		}
	}
	return m, nil
}

// episode runs onlineCycles cycles on a fresh server and returns its
// outcome: one letter per cycle (P promoted, R rejected, - no candidate)
// and the final active version.
func (b *onlineBench) episode(rec *recorder, ep int, m *measurement, st *onlineStats) (string, error) {
	dir, err := newModelDir("online", b.incumbent)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return "", err
	}
	oc := serve.OnlineConfig{
		Enabled:       true,
		Model:         serveModel,
		Dir:           filepath.Join(dir, "online"),
		TrainInterval: 24 * time.Hour,
		ShadowWindow:  shadowWindow,
		// The shadow traffic replays oracle-dataset states, not the states
		// the candidate was refined on, so action agreement says little
		// here; leave the judgement to the replay gate so every staged
		// candidate is replayed and, when it holds up, swapped in.
		MinAgreement: -1,
		Seed:         b.seed,
	}
	// The server's retraining with early stopping off: how many epochs
	// early stopping keeps depends on the seed's visited states, and a
	// fixed budget keeps a cycle's cost close from one seed to the next.
	tcfg := online.DefaultTrainConfig()
	tcfg.MaxEpochs, tcfg.Patience = onlineEpochs, onlineEpochs+1
	oc.Train = online.DefaultTrain(tcfg)
	if rec != nil {
		oc.Labeler = &timedLabeler{inner: online.NewOracleLabeler(online.QuickLabelConfig()), b: &st.label}
		train := oc.Train
		oc.Train = func(inc *nn.MLP, ds nn.Dataset, seed int64) (*nn.MLP, error) {
			t0 := time.Now()
			defer func() { st.train.add(time.Since(t0), ds.Len()) }()
			return train(inc, ds, seed)
		}
	}
	srv := serve.NewServer(serve.Config{
		ModelsDir: filepath.Join(dir, "models"),
		Batch:     serve.DefaultBatcherConfig(),
		Online:    oc,
	})
	url, hs, err := listen(srv.Handler())
	if err != nil {
		srv.Shutdown(context.Background())
		return "", err
	}
	defer func() {
		hs.Close()
		srv.Shutdown(context.Background())
	}()
	mgr := srv.OnlineManager()
	if mgr == nil {
		return "", fmt.Errorf("online learner did not start")
	}
	c := newAPIClient(url, 1)
	defer c.close()

	rng := rand.New(rand.NewSource(b.seed))
	pool := workload.TrainingSet()
	var outcome strings.Builder
	epStart := time.Now()
	for cyc := 0; cyc < onlineCycles; cyc++ {
		group := fmt.Sprintf("online/ep%d/cycle%d", ep, cyc)
		t0 := time.Now()
		root := rec.begin(group, "online.cycle", -1)

		// 1. A TOP-IL sim job on the online model records visited states.
		var jobs []workload.JobEntry
		for _, k := range rng.Perm(len(pool))[:3] {
			jobs = append(jobs, workload.JobEntry{Name: pool[k], TotalInstr: 1e12, QoS: 2e8})
		}
		sp := rec.begin(group, "online.record", root)
		snap, err := c.runSimJob(serve.SimRequest{Policy: "TOP-IL", Model: serveModel,
			Duration: 8, Seed: b.seed*100 + int64(cyc), Jobs: jobs})
		rec.finish(sp)
		if err != nil {
			return "", fmt.Errorf("cycle %d sim job: %w", cyc, err)
		}
		if snap.State != serve.StateDone {
			return "", fmt.Errorf("cycle %d sim job ended %s: %s", cyc, snap.State, snap.Error)
		}
		t1 := time.Now()

		// 2. Label the new states and retrain.
		sp = rec.begin(group, "online.run_cycle", root)
		err = mgr.RunCycle(int64(ep*onlineCycles + cyc))
		rec.finish(sp)
		if err != nil {
			return "", fmt.Errorf("cycle %d: %w", cyc, err)
		}

		// 3. Live traffic fills the shadow window.
		sp = rec.begin(group, "online.shadow", root)
		staged := mgr.Status().CandidateVersion > 0
		for sent := 0; sent < shadowWindow; sent += eightRows {
			batch := make([][]float64, eightRows)
			for k := range batch {
				batch[k] = b.rows[rng.Intn(len(b.rows))]
			}
			if _, err := c.infer(batch, ""); err != nil {
				return "", fmt.Errorf("cycle %d infer: %w", cyc, err)
			}
		}
		for staged && mgr.Status().ShadowComparisons < shadowWindow {
			if time.Since(t0) > time.Minute {
				return "", fmt.Errorf("cycle %d: shadow window never filled", cyc)
			}
			time.Sleep(time.Millisecond)
		}
		rec.finish(sp)

		// 4. Judge the candidate: replay, then swap or reject.
		t2 := time.Now()
		status := mgr.Status()
		sp = rec.begin(group, "online.promote", root)
		promoted, err := mgr.TryPromote()
		rec.finish(sp)
		rec.finish(root)
		if err != nil {
			return "", fmt.Errorf("cycle %d promote: %w", cyc, err)
		}
		st.record += t1.Sub(t0)
		st.promote += time.Since(t2)
		switch {
		case promoted:
			outcome.WriteByte('P')
		case staged:
			outcome.WriteByte('R')
		default:
			outcome.WriteByte('-')
		}
		st.shadowRows += status.ShadowComparisons
	}
	final := mgr.Status()
	st.labeled += final.SamplesLabeled
	st.skipped += final.SamplesSkipped
	st.promotions += final.Promotions
	// One sample per episode, its mean cycle time: cycles differ by design
	// (the cache warms, the dataset grows), episodes do not.
	m.ops = append(m.ops, float64(time.Since(epStart))/float64(time.Millisecond)/onlineCycles)
	fmt.Fprintf(&outcome, " v%d", final.ActiveVersion)
	return outcome.String(), nil
}

// verify checks an episode's promotion sequence and final version: equal
// across the run's episodes and, for the default seed, to the reference;
// on any seed the active version must follow from the sequence.
func (b *onlineBench) verify(outcome string, o *outcome) {
	// Every staged candidate is published as the next version, so the
	// active version is 1 plus the staged cycles up to the last promotion.
	seq, ver, _ := strings.Cut(outcome, " ")
	want := 1
	if last := strings.LastIndexByte(seq, 'P'); last >= 0 {
		want += len(seq[:last+1]) - strings.Count(seq[:last+1], "-")
	}
	o.check(ver == fmt.Sprintf("v%d", want),
		"online: episode %q: active version does not follow the promotions", outcome)
	if b.first == "" {
		b.first = outcome
		fmt.Printf("digest online seed %d: %s\n", b.seed, outcome)
		if ref, ok := references["online"][b.seed]; ok {
			o.check(outcome == ref, "online: episode %q differs from the reference %q", outcome, ref)
		}
		return
	}
	o.check(outcome == b.first, "online: episode %q differs from the run's first %q", outcome, b.first)
}

// timedLabeler times every expert query of the labeler it wraps.
type timedLabeler struct {
	inner online.Labeler
	b     *busy
}

func (t *timedLabeler) Label(s online.Sample) ([]float64, bool, error) {
	t0 := time.Now()
	defer func() { t.b.add(time.Since(t0), 1) }()
	return t.inner.Label(s)
}
