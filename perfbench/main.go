// Command perfbench is the repository's benchmark. It drives TOP-IL's
// pipelines through their public Go APIs and their HTTP surface:
//
//	design    oracle dataset, then imitation-learning training (on request
//	          only: too unsteady for BENCHMARK.json, see README.md)
//	evaluate  the Fig. 8 run matrix, with and without fan
//	serve     open-loop /v1/infer through a 2-replica cluster, plus sim jobs
//	online    DAgger cycles on one server: record, label, retrain, shadow, promote
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload evaluate --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced; with
// --trace 1 it prints the per-layer metrics of a traced run, next to the
// same workload run untraced, and writes the trace as Chrome trace-event
// JSON under -trace-dir. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit status
// is non-zero when an output check failed. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// A run sets its workload up at least setupRounds times and until
// setupBudget has passed, at most maxSetupRounds times; setup_s is the
// median. Cheap set-ups are repeated more, so one scheduling hiccup does
// not move the median.
const (
	setupRounds    = 3
	setupBudget    = time.Second
	maxSetupRounds = 15
)

// bench is one workload.
type bench interface {
	// setup builds what the workload's timed loop needs; it may be called
	// again after close.
	setup(seed int64) error
	// measure runs the workload for about the given time. With a non-nil
	// recorder it traces the calls into each layer and reports per-layer
	// metrics.
	measure(rec *recorder, seconds float64, o *outcome) (measurement, error)
	close()
}

// measurement is what one timed loop produced.
type measurement struct {
	ops    samples            // latency of each unit of work, ms
	facets map[string]float64 // the workload's named figures (design_s, ...)
	layers map[string]float64 // per-layer metrics, traced runs only
}

// outcome counts operations and output checks across a run.
type outcome struct {
	attempted, failed int
	problems          []string
}

// check records one checked operation; a false ok counts it failed.
func (o *outcome) check(ok bool, format string, args ...interface{}) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, fmt.Sprintf(format, args...))
		}
	}
}

func newBench(name string) (bench, error) {
	switch name {
	case "design":
		return &designBench{}, nil
	case "evaluate":
		return &evalBench{}, nil
	case "serve":
		return &serveBench{}, nil
	case "online":
		return &onlineBench{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	var (
		wl       = flag.String("workload", "", "workload: design, evaluate, serve or online")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "how long to measure")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where traced runs write Chrome trace JSON")
		check    = flag.Bool("check", false, "validate BENCHMARK.json and perfbench/host.json against the metric table, then exit")
		emit     = flag.Bool("emit", false, "print the BENCHMARK.json the metric table defines, then exit")
	)
	flag.Parse()
	switch {
	case *emit:
		b, err := json.MarshalIndent(specFile(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	case *check:
		if errs := checkFiles("BENCHMARK.json", filepath.Join("perfbench", "host.json")); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, "perfbench -check:", e)
			}
			os.Exit(1)
		}
		fmt.Println("perfbench -check: ok")
		return
	}
	b, err := newBench(*wl)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	var o outcome
	metrics, err := run(b, *wl, *seed, *seconds, *trace == 1, *traceDir, &o)
	b.close()
	if err != nil {
		fatal(err)
	}
	report(os.Stdout, *wl, *seed, *trace == 1, metrics, &o)
	if o.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one benchmark run and returns the metrics to report.
func run(b bench, wl string, seed int64, seconds float64, traced bool, traceDir string, o *outcome) (map[string]float64, error) {
	if !traced {
		var setups samples
		for i := 0; i < maxSetupRounds && (i < setupRounds || setups.sum() < setupBudget.Seconds()); i++ {
			if i > 0 {
				b.close()
			}
			start := time.Now()
			if err := b.setup(seed); err != nil {
				return nil, fmt.Errorf("%s setup: %w", wl, err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		m, err := b.measure(nil, seconds, o)
		if err != nil {
			return nil, err
		}
		o.check(len(m.ops) > 0, "%s: no operation completed", wl)
		fmt.Printf("op_p50_ms: median of %d operations\n", len(m.ops))
		return map[string]float64{
			"setup_s":     setups.median(),
			"mem_peak_mb": peakRSSMiB(),
			"op_p50_ms":   m.ops.median(),
		}, nil
	}

	if err := b.setup(seed); err != nil {
		return nil, fmt.Errorf("%s setup: %w", wl, err)
	}
	plain, err := b.measure(nil, seconds/2, o)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	tr, err := b.measure(rec, seconds/2, o)
	if err != nil {
		return nil, err
	}
	o.check(len(plain.ops) > 0 && len(tr.ops) > 0, "%s: no operation completed", wl)
	fmt.Printf("op_p50_ms: median of %d operations untraced, %d traced\n", len(plain.ops), len(tr.ops))
	out := map[string]float64{}
	for k, v := range plain.facets {
		out[k] = v
	}
	for k, v := range tr.layers {
		out[k] = v
	}
	p := rec.profile()
	out["op_p50_ms.untraced"] = plain.ops.median()
	out["op_p50_ms.traced"] = tr.ops.median()
	if plain.ops.median() > 0 {
		out["trace.overhead_frac"] = tr.ops.median()/plain.ops.median() - 1
	}
	if p.rootWall > 0 {
		out["trace.accounted_frac"] = float64(p.covered) / float64(p.rootWall)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", wl, seed))
	if err := rec.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %s\n", path)
	return out, nil
}

// report prints every metric of the run's kind by name with its unit, then
// the result line.
func report(w *os.File, wl string, seed int64, traced bool, metrics map[string]float64, o *outcome) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "host: nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(bw, "workload %s seed %d trace %v\n", wl, seed, traced)
	for _, p := range o.problems {
		fmt.Fprintf(bw, "CHECK FAILED: %s\n", p)
	}
	specs := endToEnd
	if traced {
		specs = reported(wl)
	}
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]metricJSON, len(specs))
	for _, s := range specs {
		v := metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A layer with no work in this run; JSON has no NaN.
			v = 0
		}
		fmt.Fprintf(bw, "%-28s %14.6g %s\n", s.name, v, s.unit)
		out[s.name] = metricJSON{Value: v, Unit: s.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	bw.Write(line)
	bw.WriteString("\n")
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
