// Command topil-loadgen drives a topil-serve replica or a topil-cluster
// router with synthetic /v1/infer traffic and prints a machine-readable
// report. It is the measurement half of the serving stack: the cluster
// claims throughput, shedding and failover properties, and this harness
// is how they are checked (scripts/check.sh cluster-smoke).
//
//	topil-loadgen -url http://localhost:8080 -model model-1 -dim 21 \
//	    -qps 500 -duration 30s -shape burst > report.json
//
// Two generator modes:
//
//   - open (default): arrivals follow a Poisson process at the shaped
//     target rate regardless of responses — the honest way to measure a
//     server, since a slow server cannot slow the offered load. Arrivals
//     with no free in-flight slot are counted as overruns, never
//     silently dropped.
//   - closed: -concurrency workers issue requests back to back and honor
//     429/503 Retry-After hints, modelling well-behaved clients.
//
// Shapes modulate the target rate over the run: constant, burst (square
// wave between 3x and 0.25x), diurnal (sinusoid between 0.2x and 1.8x).
// The exit status is 0 as long as the run completed; interpreting error
// counts is the caller's job (report fields are documented on
// cluster.LoadReport).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "topil-loadgen: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		url      = flag.String("url", "http://localhost:8080", "target base URL (router or single replica)")
		model    = flag.String("model", "model-1", "model name for /v1/infer requests")
		dim      = flag.Int("dim", 21, "input feature dimension")
		rows     = flag.Int("rows", 1, "rows per inference request")
		qps      = flag.Float64("qps", 50, "target request rate (open mode)")
		conc     = flag.Int("concurrency", 0, "in-flight bound (open) / worker count (closed)")
		duration = flag.Duration("duration", 5*time.Second, "run length")
		mode     = flag.String("mode", cluster.ModeOpen, "open | closed")
		shape    = flag.String("shape", cluster.ShapeConstant, "constant | burst | diurnal")
		seed     = flag.Int64("seed", 1, "payload generator seed")
		out      = flag.String("o", "-", "report destination (- for stdout)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := cluster.RunLoad(ctx, cluster.LoadConfig{
		URL:         strings.TrimSuffix(*url, "/"),
		Model:       *model,
		InputDim:    *dim,
		Rows:        *rows,
		QPS:         *qps,
		Concurrency: *conc,
		Duration:    *duration,
		Mode:        *mode,
		Shape:       *shape,
		Seed:        *seed,
	})
	if err != nil {
		return err
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}
