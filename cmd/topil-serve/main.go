// Command topil-serve runs the simulation & policy-inference service: a
// long-lived HTTP server that answers TOP-IL placement queries through a
// batched NPU-style inference frontend and executes full managed
// simulations as asynchronous jobs on a bounded worker pool.
//
//	topil-serve -addr :8080 -models artifacts
//
// Endpoints (see the README's Serving section for a full curl session):
//
//	GET    /v1/healthz     liveness
//	GET    /v1/models      models available in -models
//	POST   /v1/infer       batched inference against a named model
//	POST   /v1/sim         enqueue a simulation job (202 + job ID)
//	GET    /v1/jobs        list jobs
//	GET    /v1/jobs/{id}   poll one job
//	DELETE /v1/jobs/{id}   cancel a job
//	GET    /v1/online      continual-learning status snapshot
//	GET    /metrics        per-route, batcher and worker-pool metrics as
//	                       Prometheus text (?format=json for JSON)
//	GET    /v1/trace       Chrome trace-event JSON of recent request spans
//
// -online MODEL turns on DAgger continual learning (docs/ONLINE.md):
// visited states from simulations and inference against MODEL are
// recorded to a durable sample log under -online-dir, labeled by the
// oracle every -train-interval, and retrained candidates are
// shadow-scored on live traffic (-shadow-window, -min-agreement) before
// an atomic hot swap with automatic rollback on telemetry regression.
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/ (off by
// default: profiling endpoints can stall a loaded server and leak
// internals, so exposing them is an explicit operator decision).
//
// -store DIR journals every job transition to DIR so accepted jobs
// survive a crash: restart with the same -store and interrupted jobs
// re-execute. This is the per-replica durability layer behind
// topil-cluster (see docs/CLUSTER.md).
//
// On SIGINT/SIGTERM the server stops accepting work and drains: accepted
// inference requests are answered and in-flight simulation jobs run to
// completion until -drain expires, at which point they are canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topil-serve: ")
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "topil-serve: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		models   = flag.String("models", "artifacts", "model artifacts directory (<name>.json)")
		workers  = flag.Int("workers", runtime.NumCPU(), "simulation worker pool size")
		queueCap = flag.Int("queue", 0, "simulation job queue capacity (default 4x workers)")
		batchMax = flag.Int("batch", 16, "rows after which a batch takes no more requests (one NPU wave)")
		inferCap = flag.Int("infer-queue", 256, "queued inference requests bound")
		drain    = flag.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight jobs")
		pprof    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		storeDir = flag.String("store", "", "durable job store directory (empty: jobs are in-memory only)")

		online        = flag.String("online", "", "model name to continually train on visited states (empty: off)")
		onlineDir     = flag.String("online-dir", "", "sample-log directory for -online (default <store>/online, required without -store)")
		trainInterval = flag.Duration("train-interval", 30*time.Second, "spacing between DAgger train cycles")
		shadowWindow  = flag.Int("shadow-window", 0, "shadow-scored rows required before a candidate is judged (0: gate default)")
		minAgreement  = flag.Float64("min-agreement", 0, "candidate-vs-incumbent action agreement the gate requires (0: gate default, negative: disabled)")
		onlineSeed    = flag.Int64("online-seed", 1, "seed for the continual learner's reservoir and retraining")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}
	if *workers <= 0 {
		return fmt.Errorf("-workers must be positive")
	}
	if *batchMax <= 0 || *inferCap <= 0 {
		return fmt.Errorf("-batch and -infer-queue must be positive")
	}
	if info, err := os.Stat(*models); err != nil {
		return fmt.Errorf("models directory: %v", err)
	} else if !info.IsDir() {
		return fmt.Errorf("models path %s is not a directory", *models)
	}

	// One registry serves /metrics AND binds the lazy handles of the leaf
	// packages (npu, nn), so accelerator-side counters surface alongside
	// the HTTP families.
	reg := telemetry.NewRegistry()
	telemetry.Install(reg)

	// A journal-backed store makes accepted jobs survive a crash: on
	// restart over the same -store directory the runner replays the
	// journal and re-executes anything that never reached a terminal
	// state.
	var store serve.JobStore
	if *storeDir != "" {
		js, err := cluster.OpenJournalStore(*storeDir)
		if err != nil {
			return fmt.Errorf("job store: %v", err)
		}
		defer js.Close()
		store = js
		log.Printf("journaling jobs to %s", *storeDir)
	}

	var onlineCfg serve.OnlineConfig
	if *online != "" {
		dir := *onlineDir
		if dir == "" && *storeDir != "" {
			dir = *storeDir + "/online"
		}
		if dir == "" {
			return fmt.Errorf("-online needs -online-dir (or -store to derive it from)")
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("online sample-log directory: %v", err)
		}
		onlineCfg = serve.OnlineConfig{
			Enabled:       true,
			Model:         *online,
			Dir:           dir,
			TrainInterval: *trainInterval,
			ShadowWindow:  *shadowWindow,
			MinAgreement:  *minAgreement,
			Seed:          *onlineSeed,
		}
		log.Printf("continual learning on model %q (interval %v, samples in %s)",
			*online, *trainInterval, dir)
	}

	srv := serve.NewServer(serve.Config{
		ModelsDir: *models,
		Workers:   *workers,
		QueueCap:  *queueCap,
		Batch: serve.BatcherConfig{
			MaxBatch: *batchMax,
			QueueCap: *inferCap,
		},
		Store:       store,
		Telemetry:   reg,
		EnablePprof: *pprof,
		Online:      onlineCfg,
	})
	if *online != "" && srv.OnlineManager() == nil {
		return fmt.Errorf("continual learner failed to start (see log above)")
	}
	if names, err := srv.Registry().List(); err == nil {
		log.Printf("serving %d model(s) from %s: %v", len(names), *models, names)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (%d workers, batch %d)", *addr, *workers, *batchMax)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Printf("signal received: draining (budget %v)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	srv.Shutdown(drainCtx)
	log.Print("drained, bye")
	return <-errCh
}
