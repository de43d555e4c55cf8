package main

// The benchmark's metric table: the single source BENCHMARK.json is
// generated from (-emit) and checked against (-check).

// workloadSpec is one workload. A dropped workload still runs on request
// but is left out of BENCHMARK.json, with the reason why.
type workloadSpec struct {
	name, why, dropped string
}

var workloads = []workloadSpec{
	{"design", "oracle traces then imitation-learning training at the paper's grid: the oracle and nn training do nearly all the work",
		"unsteady: op_p50_ms spread 0.23 and 0.45 over ten seeds, above the 0.25 bound; its oracle and nn code also runs in online's label and train stages"},
	{"evaluate", "the Fig. 8 run matrix with and without fan: the sim engine, the TOP-IL/RL/governor managers and the parallel executor do the work", ""},
	{"serve", "open-loop /v1/infer through the router to 2 replicas, rate ladder then sim jobs mixed in: cluster, serve batcher and inference do the work", ""},
	{"online", "benchmark-driven DAgger cycles (record, label, retrain, shadow, promote): the labeler cache, warm-start training and hot swap do the work", ""},
}

// metricSpec describes one metric. End-to-end metrics carry the bound by
// which a change may worsen them; per-layer metrics name the metrics they
// should move (at least one end-to-end) and the workloads that measure
// them.
type metricSpec struct {
	name, unit, better string
	bound              float64
	moves              []string
	on                 []string
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "mem_peak_mb", unit: "MiB", better: lower, bound: 0.2},
	{name: "op_p50_ms", unit: "ms", better: lower, bound: 0.25},
}

// Shorthands for the per-layer table.
var (
	onDesign   = []string{"design"}
	onEval     = []string{"evaluate"}
	onServe    = []string{"serve"}
	onOnline   = []string{"online"}
	onAll      = []string{"design", "evaluate", "serve", "online"}
	op         = "op_p50_ms"
	designE2E  = []string{op, "design_s", "dagger_cycle_s"}
	evalE2E    = []string{op, "eval_s"}
	serveE2E   = []string{op, "infer_p50_ms.mid", "infer_p99_ms.high", "infer_p99_ms.mixed"}
	onlineE2E  = []string{op, "dagger_cycle_s"}
	serveFacet = []string{op}
)

var perLayer = []metricSpec{
	// Each workload's headline figures under their own names: the value
	// op_p50_ms takes on their workload, plus the serve ladder's other
	// rates and tails, which are too noisy to gate on.
	{name: "design_s", unit: "s", better: lower, moves: []string{op}, on: onDesign},
	{name: "eval_s", unit: "s", better: lower, moves: []string{op}, on: onEval},
	{name: "infer_p50_ms.low", unit: "ms", better: lower, moves: serveFacet, on: onServe},
	{name: "infer_p99_ms.low", unit: "ms", better: lower, moves: serveFacet, on: onServe},
	{name: "infer_n.low", unit: "count", better: higher, moves: serveFacet, on: onServe},
	{name: "infer_p50_ms.mid", unit: "ms", better: lower, moves: serveFacet, on: onServe},
	{name: "infer_p99_ms.mid", unit: "ms", better: lower, moves: serveFacet, on: onServe},
	{name: "infer_n.mid", unit: "count", better: higher, moves: serveFacet, on: onServe},
	{name: "infer_p50_ms.high", unit: "ms", better: lower, moves: serveFacet, on: onServe},
	{name: "infer_p99_ms.high", unit: "ms", better: lower, moves: serveFacet, on: onServe},
	{name: "infer_n.high", unit: "count", better: higher, moves: serveFacet, on: onServe},
	{name: "infer_max_rps", unit: "1/s", better: higher, moves: serveFacet, on: onServe},
	{name: "infer_p50_ms.mixed", unit: "ms", better: lower, moves: serveFacet, on: onServe},
	{name: "infer_p99_ms.mixed", unit: "ms", better: lower, moves: serveFacet, on: onServe},
	{name: "infer_n.mixed", unit: "count", better: higher, moves: serveFacet, on: onServe},
	{name: "simjob_s", unit: "s", better: lower, moves: []string{op, "infer_p50_ms.mixed"}, on: onServe},
	{name: "simjob_n", unit: "count", better: higher, moves: []string{op, "infer_p50_ms.mixed"}, on: onServe},
	{name: "dagger_cycle_s", unit: "s", better: lower, moves: []string{op}, on: onOnline},

	// Tracing itself: the traced run's op_p50_ms beside the untraced one.
	{name: "op_p50_ms.untraced", unit: "ms", better: lower, moves: []string{op}, on: onAll},
	{name: "op_p50_ms.traced", unit: "ms", better: lower, moves: []string{op}, on: onAll},
	{name: "trace.overhead_frac", unit: "ratio", better: lower, moves: []string{op}, on: onAll},
	{name: "trace.accounted_frac", unit: "ratio", better: higher, moves: []string{op}, on: onAll},

	{name: "oracle.collect_s", unit: "s", better: lower, moves: designE2E, on: onDesign},
	{name: "oracle.extract_s", unit: "s", better: lower, moves: designE2E, on: onDesign},
	{name: "oracle.scenarios", unit: "count", better: higher, moves: designE2E, on: onDesign},
	{name: "oracle.examples", unit: "count", better: higher, moves: designE2E, on: onDesign},

	{name: "nn.train_s", unit: "s", better: lower, moves: designE2E, on: onDesign},
	{name: "nn.train_epochs", unit: "count", better: higher, moves: designE2E, on: onDesign},
	{name: "nn.train_rows_per_s", unit: "1/s", better: higher, moves: designE2E, on: onDesign},

	{name: "npu.calls", unit: "count", better: higher, moves: []string{op, "infer_p50_ms.mid", "eval_s"}, on: []string{"serve", "evaluate"}},
	{name: "npu.rows_per_call", unit: "count", better: higher, moves: []string{op, "infer_p50_ms.mid", "eval_s"}, on: []string{"serve", "evaluate"}},
	{name: "npu.us_per_row", unit: "us", better: lower, moves: []string{op, "infer_p50_ms.mid", "eval_s"}, on: []string{"serve", "evaluate"}},

	{name: "sim.self_s", unit: "s", better: lower, moves: evalE2E, on: onEval},
	{name: "sim.speed", unit: "ratio", better: higher, moves: evalE2E, on: onEval},
	{name: "sim.ticks", unit: "count", better: higher, moves: evalE2E, on: onEval},

	{name: "core.tick_s", unit: "s", better: lower, moves: evalE2E, on: onEval},
	{name: "core.migrations", unit: "count", better: lower, moves: evalE2E, on: onEval},
	{name: "rl.tick_s", unit: "s", better: lower, moves: evalE2E, on: onEval},
	{name: "governor.tick_s", unit: "s", better: lower, moves: evalE2E, on: onEval},

	{name: "experiments.cells", unit: "count", better: higher, moves: evalE2E, on: onEval},
	{name: "experiments.cell_p50_s", unit: "s", better: lower, moves: evalE2E, on: onEval},
	{name: "experiments.cell_max_s", unit: "s", better: lower, moves: evalE2E, on: onEval},
	{name: "experiments.parallel_eff", unit: "ratio", better: higher, moves: evalE2E, on: onEval},

	{name: "cluster.router_ms.p50", unit: "ms", better: lower, moves: serveE2E, on: onServe},
	{name: "cluster.router_ms.p99", unit: "ms", better: lower, moves: serveE2E, on: onServe},
	{name: "cluster.router_ms.n", unit: "count", better: higher, moves: serveE2E, on: onServe},

	{name: "serve.handler_ms.p50", unit: "ms", better: lower, moves: serveE2E, on: onServe},
	{name: "serve.handler_ms.p99", unit: "ms", better: lower, moves: serveE2E, on: onServe},
	{name: "serve.batch_wait_ms.p50", unit: "ms", better: lower, moves: []string{op, "infer_p50_ms.low"}, on: onServe},
	{name: "serve.batch_wait_ms.p99", unit: "ms", better: lower, moves: []string{op, "infer_p99_ms.high"}, on: onServe},
	{name: "serve.batch_wait_ms.n", unit: "count", better: higher, moves: []string{op, "infer_p50_ms.low"}, on: onServe},
	{name: "serve.batch_rows.mean", unit: "count", better: higher, moves: []string{op, "infer_p50_ms.low"}, on: onServe},
	{name: "serve.compute_ms.p50", unit: "ms", better: lower, moves: serveE2E, on: onServe},
	{name: "serve.simjob_queued_ms", unit: "ms", better: lower, moves: []string{op, "simjob_s"}, on: onServe},
	{name: "serve.simjob_run_ms", unit: "ms", better: lower, moves: []string{op, "simjob_s"}, on: onServe},
	{name: "serve.failed", unit: "count", better: lower, moves: serveE2E, on: onServe},

	{name: "online.record_s", unit: "s", better: lower, moves: onlineE2E, on: onOnline},
	{name: "online.label_s", unit: "s", better: lower, moves: onlineE2E, on: onOnline},
	{name: "online.labeled", unit: "count", better: higher, moves: onlineE2E, on: onOnline},
	{name: "online.skipped", unit: "count", better: lower, moves: onlineE2E, on: onOnline},
	{name: "online.train_s", unit: "s", better: lower, moves: onlineE2E, on: onOnline},
	{name: "online.shadow_rows", unit: "count", better: higher, moves: onlineE2E, on: onOnline},
	{name: "online.promote_s", unit: "s", better: lower, moves: onlineE2E, on: onOnline},
	{name: "online.promotions", unit: "count", better: higher, moves: onlineE2E, on: onOnline},

	{name: "loadgen.late_ms.p99", unit: "ms", better: lower, moves: serveE2E, on: onServe},
	{name: "loadgen.late_ms.max", unit: "ms", better: lower, moves: serveE2E, on: onServe},
	{name: "loadgen.backlog_max", unit: "count", better: lower, moves: serveE2E, on: onServe},
}
