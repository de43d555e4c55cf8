// Command topil-cluster fronts N topil-serve replicas with a sharding
// router: POST /v1/infer and /v1/sim are consistent-hash routed (infer by
// model+feature key, sim by job ID), unhealthy or saturated replicas are
// skipped, and when every candidate is saturated the router sheds with
// 429 + Retry-After instead of queueing unbounded work.
//
// Two modes:
//
//	topil-cluster -n 3 -models artifacts -store-root /var/lib/topil
//	    launches 3 in-process replicas (each with its own journal
//	    directory under -store-root) and routes across them — the
//	    one-binary way to run the whole cluster.
//
//	topil-cluster -join http://10.0.0.1:8081,http://10.0.0.2:8081
//	    routes across externally managed topil-serve processes; the
//	    router holds no job state, so replicas can be restarted freely.
//
// Router endpoints mirror the replica API (see docs/CLUSTER.md), plus:
//
//	GET  /v1/cluster                    replica topology & health
//	POST /v1/replicas/{name}/drain      drain one replica via the router
//	GET  /metrics                       router-level Prometheus families
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
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topil-cluster: ")
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "topil-cluster: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8080", "router listen address")
		join      = flag.String("join", "", "comma-separated replica base URLs (external replicas; disables -n)")
		n         = flag.Int("n", 3, "in-process replica count (ignored with -join)")
		models    = flag.String("models", "artifacts", "model artifacts directory for in-process replicas")
		storeRoot = flag.String("store-root", "", "root directory for per-replica job journals (empty: temp dir)")
		workers   = flag.Int("workers", 0, "per-replica simulation workers (default NumCPU/n, min 1)")
		queueCap  = flag.Int("queue", 0, "per-replica job queue capacity (default 4x workers)")
		vnodes    = flag.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per replica on the hash ring")
		shedLoad  = flag.Float64("shed-load", 0, "queue-fill fraction at which a replica is skipped (default 0.95)")
		healthInt = flag.Duration("health-interval", 250*time.Millisecond, "replica health poll interval")
		fwdTO     = flag.Duration("forward-timeout", 30*time.Second, "per-attempt forward timeout")
		drain     = flag.Duration("drain", 30*time.Second, "shutdown drain budget")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}

	reg := telemetry.NewRegistry()
	telemetry.Install(reg)

	var (
		replicas []cluster.Replica
		set      *cluster.ReplicaSet
	)
	if *join != "" {
		for i, u := range strings.Split(*join, ",") {
			u = strings.TrimSpace(strings.TrimSuffix(u, "/"))
			if u == "" {
				return fmt.Errorf("-join entry %d is empty", i)
			}
			replicas = append(replicas, cluster.Replica{
				Name: fmt.Sprintf("replica-%d", i),
				URL:  u,
			})
		}
	} else {
		if *n <= 0 {
			return fmt.Errorf("-n must be positive")
		}
		if info, err := os.Stat(*models); err != nil {
			return fmt.Errorf("models directory: %v", err)
		} else if !info.IsDir() {
			return fmt.Errorf("models path %s is not a directory", *models)
		}
		root := *storeRoot
		if root == "" {
			tmp, err := os.MkdirTemp("", "topil-cluster-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			root = tmp
			log.Printf("warning: -store-root not set; journals in %s do not survive this process", root)
		}
		w := *workers
		if w <= 0 {
			w = runtime.NumCPU() / *n
			if w < 1 {
				w = 1
			}
		}
		var err error
		set, err = cluster.StartReplicaSet(cluster.ReplicaSetConfig{
			N: *n,
			Serve: serve.Config{
				ModelsDir: *models,
				Workers:   w,
				QueueCap:  *queueCap,
			},
			StoreRoot: root,
		})
		if err != nil {
			return fmt.Errorf("start replicas: %v", err)
		}
		defer set.Close()
		replicas = set.Replicas()
		log.Printf("started %d in-process replicas (%d workers each, journals under %s)", *n, w, root)
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas:       replicas,
		Vnodes:         *vnodes,
		ShedLoad:       *shedLoad,
		HealthInterval: *healthInt,
		ForwardTimeout: *fwdTO,
		Telemetry:      reg,
	})
	if err != nil {
		return fmt.Errorf("router: %v", err)
	}
	defer rt.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("routing on %s across %d replica(s)", *addr, len(replicas))
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
	if set != nil {
		// Drain the replicas together under the same budget, so their
		// in-flight sim jobs finish and journal a terminal record. (The
		// deferred set.Close is then a no-op; alone it would kill them.)
		var wg sync.WaitGroup
		for i := range set.Names() {
			if rep := set.Replica(i); rep != nil {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rep.Shutdown(drainCtx)
				}()
			}
		}
		wg.Wait()
	}
	log.Print("drained, bye")
	return <-errCh
}
