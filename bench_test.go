// Benchmark harness: one testing.B target per table/figure of the paper's
// evaluation. Each bench regenerates the corresponding experiment at quick
// scale and reports its headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. The shared design-time pipeline
// (oracle traces, IL model, RL pretraining) is built once outside the
// timers. Micro-benchmarks for the core substrate (engine tick, NN
// inference/backprop, model artifact save/load, thermal step) sit at the
// bottom.
package repro_test

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/workload"
)

var (
	benchOnce sync.Once
	benchPipe *experiments.Pipeline
)

// pipeline returns the shared quick-scale pipeline with the design-time
// artifacts prebuilt (outside any benchmark timer).
func pipeline(b *testing.B) *experiments.Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		benchPipe = experiments.NewPipeline(experiments.QuickScale())
		if _, err := benchPipe.Models(); err != nil {
			b.Fatal(err)
		}
		if _, err := benchPipe.QTables(); err != nil {
			b.Fatal(err)
		}
	})
	return benchPipe
}

// BenchmarkTable2Features measures extraction of the paper's Table-2
// feature vectors from a live platform snapshot — the per-epoch cost of the
// daemon's observation path, run as TOP-IL's epoch runs it: FromEnvInto,
// Batch.Reset and one Batch.VectorInto row per application, all on reused
// buffers.
func BenchmarkTable2Features(b *testing.B) {
	cfg := sim.DefaultConfig(true, 25)
	e := sim.New(cfg)
	pm := perf.Default()
	for _, name := range []string{"adi", "seidel-2d", "canneal", "ferret"} {
		spec, _ := workload.ByName(name)
		spec.TotalInstr = 1e18
		e.AddJob(workload.Job{Spec: spec, QoS: 0.3 * pm.PeakIPS(cfg.Platform, spec)})
	}
	e.Run(nil, 1)
	var (
		snap  features.Snapshot
		views []sim.AppView
		batch features.Batch
		rows  [][]float64
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		views = features.FromEnvInto(&snap, e.Env(), views)
		batch.Reset(snap)
		dim := features.Dim(snap.NumCores, len(snap.Clusters))
		for len(rows) < batch.Len() {
			rows = append(rows, make([]float64, dim))
		}
		for k := 0; k < batch.Len(); k++ {
			batch.VectorInto(rows[k], k)
		}
		if batch.Len() != 4 || dim != 21 {
			b.Fatal("unexpected feature shape")
		}
	}
}

// BenchmarkFig1Motivational regenerates the motivational example.
func BenchmarkFig1Motivational(b *testing.B) {
	p := pipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.Fig1Motivational()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			adv := tempOf(res, "adi", 1, "LITTLE") - tempOf(res, "adi", 1, "big")
			b.ReportMetric(adv, "°C_adi_big_advantage")
		}
	}
}

func tempOf(r *experiments.Fig1Result, app string, scen int, mapping string) float64 {
	for _, row := range r.Rows {
		if row.App == app && row.Scenario == scen && row.Mapping == mapping {
			return row.AvgTemp
		}
	}
	return 0
}

// BenchmarkFig3GridSearch regenerates the NAS grid search.
func BenchmarkFig3GridSearch(b *testing.B) {
	p := pipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.Fig3GridSearch()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.NAS.Best.ValLoss, "best_val_mse")
			b.ReportMetric(float64(res.NAS.Best.Depth), "best_depth")
			b.ReportMetric(float64(res.NAS.Best.Width), "best_width")
		}
	}
}

// BenchmarkFig5MigrationOverhead regenerates the worst-case migration
// overhead measurement.
func BenchmarkFig5MigrationOverhead(b *testing.B) {
	p := pipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.Fig5MigrationOverhead()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Maximum*100, "%_max_overhead")
			b.ReportMetric(res.Average*100, "%_avg_overhead")
		}
	}
}

// BenchmarkFig7Illustrative regenerates the IL-vs-RL stability comparison.
func BenchmarkFig7Illustrative(b *testing.B) {
	p := pipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.Fig7Illustrative()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			il, rl := 0, 0
			for _, tr := range res.Traces {
				if tr.Technique == "TOP-IL" {
					il += tr.Migrations
				} else {
					rl += tr.Migrations
				}
			}
			b.ReportMetric(float64(il), "IL_migrations")
			b.ReportMetric(float64(rl), "RL_migrations")
		}
	}
}

func benchFig8(b *testing.B, fan bool) {
	p := pipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.Fig8Main(fan)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MeanTempOf("GTS/ondemand")-res.MeanTempOf("TOP-IL"),
				"°C_saved_vs_ondemand")
			b.ReportMetric(meanViolationsOf(res, "TOP-RL")-meanViolationsOf(res, "TOP-IL"),
				"violations_fewer_than_RL")
		}
	}
}

// meanViolationsOf averages a technique's QoS violations over all arrival
// rates.
func meanViolationsOf(r *experiments.Fig8Result, technique string) float64 {
	var xs []float64
	for _, c := range r.Cells {
		if c.Technique == technique {
			xs = append(xs, c.Violations.Mean)
		}
	}
	return stats.Mean(xs)
}

// BenchmarkFig8MainFan regenerates the main experiment with active cooling.
func BenchmarkFig8MainFan(b *testing.B) { benchFig8(b, true) }

// BenchmarkFig8MainNoFan regenerates the main experiment with passive
// cooling (the cooling-generalization claim).
func BenchmarkFig8MainNoFan(b *testing.B) { benchFig8(b, false) }

// BenchmarkFig10FrequencyUsage regenerates the CPU-time-per-VF-level
// breakdown (computed from the no-fan main runs).
func BenchmarkFig10FrequencyUsage(b *testing.B) {
	p := pipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.Fig8Main(false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Ondemand's signature: share of big-cluster time at the top level.
			ct := res.CPUTime["GTS/ondemand"]
			total, top := 0.0, 0.0
			for _, v := range ct[1] {
				total += v
			}
			top = ct[1][len(ct[1])-1]
			if total > 0 {
				b.ReportMetric(top/total*100, "%_ondemand_big_at_max")
			}
		}
	}
}

// BenchmarkFig11SingleApp regenerates the unseen-application experiment.
func BenchmarkFig11SingleApp(b *testing.B) {
	p := pipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.Fig11SingleApp()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			v, _ := res.TotalViolations("TOP-IL")
			pv, _ := res.TotalViolations("GTS/powersave")
			b.ReportMetric(float64(v), "IL_violating_runs")
			b.ReportMetric(float64(pv), "powersave_violating_runs")
		}
	}
}

// BenchmarkFig12Overhead regenerates the run-time overhead evaluation.
func BenchmarkFig12Overhead(b *testing.B) {
	p := pipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.Fig12Overhead()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.DVFSMsPerCall, "ms_dvfs_per_call_16apps")
			b.ReportMetric(last.MigrationMsPerCall, "ms_migr_per_call_16apps")
		}
	}
}

// BenchmarkModelEvaluation regenerates the model-in-isolation evaluation.
func BenchmarkModelEvaluation(b *testing.B) {
	p := pipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.ModelEvaluation()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.WithinOneC.Mean*100, "%_within_1C")
			b.ReportMetric(res.MeanExcess.Mean, "°C_mean_excess")
		}
	}
}

// BenchmarkDatasetAblations compares soft vs hard oracle labels and the
// model with and without the f̃ and current-mapping feature groups.
func BenchmarkDatasetAblations(b *testing.B) {
	p := pipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.DatasetAblations()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res[0].Default["within 1°C"]*100, "%_default")
			for j, unit := range []string{"%_hard_labels", "%_no_freq", "%_no_mapping"} {
				b.ReportMetric(res[j].Variant["within 1°C"]*100, unit)
			}
		}
	}
}

// BenchmarkAblationDVFSStep compares one-step vs jump-to-target DVFS.
func BenchmarkAblationDVFSStep(b *testing.B) {
	p := pipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.AblationDVFSStep()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Default["violations"], "violations_onestep")
			b.ReportMetric(res.Variant["violations"], "violations_jump")
		}
	}
}

// BenchmarkEnergyAnalysis regenerates the energy extension experiment.
func BenchmarkEnergyAnalysis(b *testing.B) {
	p := pipeline(b)
	for i := 0; i < b.N; i++ {
		res, err := p.EnergyAnalysis()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if row, ok := res.Row("TOP-IL"); ok {
				b.ReportMetric(row.TotalJ.Mean, "J_topil_total")
			}
		}
	}
}

// ---- substrate micro-benchmarks ----

// BenchmarkEngineTick measures the simulation engine's cost per tick with a
// realistic load (6 apps).
func BenchmarkEngineTick(b *testing.B) {
	cfg := sim.DefaultConfig(true, 25)
	e := sim.New(cfg)
	pool := []string{"adi", "canneal", "ferret", "seidel-2d", "syr2k", "dedup"}
	for _, name := range pool {
		spec, _ := workload.ByName(name)
		spec.TotalInstr = 1e18
		e.AddJob(workload.Job{Spec: spec, QoS: 1e9})
	}
	e.Run(nil, 1)
	b.ResetTimer()
	e.Run(nil, float64(b.N)*cfg.Dt)
}

// BenchmarkEngineTickIdle measures the cost per tick of an engine with no
// application: the power, thermal, sensor and DTM work every tick pays,
// which is most of a Fig. 8 pass's simulated time at low arrival rates.
func BenchmarkEngineTickIdle(b *testing.B) {
	cfg := sim.DefaultConfig(true, 25)
	e := sim.New(cfg)
	e.Run(nil, 1)
	b.ResetTimer()
	e.Run(nil, float64(b.N)*cfg.Dt)
}

// BenchmarkNNInference measures a single forward pass of the paper's 4×64
// topology.
func BenchmarkNNInference(b *testing.B) {
	m := nn.NewMLP(nn.PaperTopology(21, 8), 1)
	x := make([]float64, 21)
	for i := range x {
		x[i] = float64(i) * 0.05
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(x)
	}
}

// BenchmarkNNTrain measures a 30-epoch fit of the paper's 4×64 topology
// on 300 rows whose features are 60 % exact zeros, the shape of an online
// retraining round.
func BenchmarkNNTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var train nn.Dataset
	for r := 0; r < 300; r++ {
		x, y := make([]float64, 21), make([]float64, 8)
		for i := range x {
			if rng.Float64() >= 0.6 {
				x[i] = rng.NormFloat64()
			}
		}
		y[rng.Intn(8)] = 1
		train.X, train.Y = append(train.X, x), append(train.Y, y)
	}
	cfg := nn.TrainConfig{MaxEpochs: 30, Patience: 30, Seed: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := nn.NewMLP(nn.PaperTopology(21, 8), 1)
		if _, err := m.Train(train, nn.Dataset{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelSave measures writing the paper's 4×64 model artifact
// (14,408 parameters) to a file, as a trainer or perfbench set-up does.
func BenchmarkModelSave(b *testing.B) {
	m := nn.NewMLP(nn.PaperTopology(21, 8), 1)
	path := filepath.Join(b.TempDir(), "model.json")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.SaveModel(m, path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelLoad measures reading that artifact back, as a serving
// replica's registry does on a model's first use.
func BenchmarkModelLoad(b *testing.B) {
	path := filepath.Join(b.TempDir(), "model.json")
	if err := core.SaveModel(nn.NewMLP(nn.PaperTopology(21, 8), 1), path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LoadModel(path, 21, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNPUBatchInference measures the batched inference path (one AoI
// row per running application).
func BenchmarkNPUBatchInference(b *testing.B) {
	m := nn.NewMLP(nn.PaperTopology(21, 8), 1)
	accel := npu.New(m)
	batch := make([][]float64, 8)
	for i := range batch {
		batch[i] = make([]float64, 21)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = accel.Infer(batch)
	}
}

// BenchmarkThermalStep measures one 10 ms step of the HiKey970 RC network.
func BenchmarkThermalStep(b *testing.B) {
	n := thermal.HiKey970Network(true, 25)
	p := make([]float64, 9)
	p[5], p[6] = 2.0, 2.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(p, 0.01)
	}
}
