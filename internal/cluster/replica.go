package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"sync"

	"repro/internal/serve"
)

// Replica is the router's view of one serving replica: a stable name (the
// ring key) and the base URL its API is reachable at. The name, not the
// URL, owns ring positions — a replica that restarts on a new port keeps
// its shard of the key space.
type Replica struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// ReplicaConfig assembles one in-process replica.
type ReplicaConfig struct {
	// Name is the replica's ring identity (required).
	Name string
	// Serve configures the embedded serving layer. Serve.Store is
	// overridden when StoreDir is set.
	Serve serve.Config
	// StoreDir, when non-empty, backs the replica with a JournalStore
	// there, so its jobs survive Kill + restart. Empty means ephemeral.
	StoreDir string
	// Addr is the listen address (default "127.0.0.1:0"). A restarted
	// replica passes its previous address so the router's URL stays good.
	Addr string
}

// LocalReplica is one in-process serving replica: an internal/serve
// server on its own listener, optionally backed by a JournalStore. It
// exists for tests, the chaos suite and topil-cluster's single-binary
// mode; production-shaped deployments run one topil-serve process per
// replica instead (scripts/check.sh smokes that path).
type LocalReplica struct {
	name  string
	addr  string
	store *JournalStore
	srv   *serve.Server
	hs    *http.Server

	mu     sync.Mutex
	killed bool
}

// StartReplica opens the store (when configured), starts the serving
// layer and begins accepting connections.
func StartReplica(cfg ReplicaConfig) (*LocalReplica, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: replica needs a name")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	var store *JournalStore
	if cfg.StoreDir != "" {
		var err error
		store, err = OpenJournalStore(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		cfg.Serve.Store = store
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, fmt.Errorf("cluster: replica %s listen: %w", cfg.Name, err)
	}
	r := &LocalReplica{
		name:  cfg.Name,
		addr:  ln.Addr().String(),
		store: store,
		srv:   serve.NewServer(cfg.Serve),
		hs:    &http.Server{Handler: nil},
	}
	r.hs.Handler = r.srv.Handler()
	go func() {
		if err := r.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("cluster: replica %s: %v", r.name, err)
		}
	}()
	return r, nil
}

// Addr returns the bound listen address.
func (r *LocalReplica) Addr() string { return r.addr }

// Kill models the machine dying, in the order a power loss imposes:
// first the journal freezes (no terminal record can be written for jobs
// that were mid-flight — they must be re-run from the journal on
// restart), then the sockets are slammed shut (clients see connection
// errors, not graceful 503s), then the in-process goroutines are reaped
// so a killed replica does not leak workers into the test process.
func (r *LocalReplica) Kill() {
	r.mu.Lock()
	if r.killed {
		r.mu.Unlock()
		return
	}
	r.killed = true
	r.mu.Unlock()
	if r.store != nil {
		r.store.Close()
	}
	r.hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-expired: cancel in-flight jobs at the next tick
	r.srv.Shutdown(ctx)
}

// Shutdown drains the replica gracefully: stop accepting, finish what is
// in flight (until ctx expires), then close the store.
func (r *LocalReplica) Shutdown(ctx context.Context) {
	r.mu.Lock()
	if r.killed {
		r.mu.Unlock()
		return
	}
	r.killed = true
	r.mu.Unlock()
	_ = r.hs.Shutdown(ctx)
	r.srv.Shutdown(ctx)
	if r.store != nil {
		r.store.Close()
	}
}

// ReplicaSetConfig assembles a set of in-process replicas.
type ReplicaSetConfig struct {
	// N is the replica count (required, > 0).
	N int
	// Serve is the per-replica serving template. Telemetry is cleared per
	// replica (each gets a private registry) so gauges do not collide.
	Serve serve.Config
	// StoreRoot, when non-empty, gives replica i, named "replica-<i>", the
	// durable store directory <StoreRoot>/replica-<i>. Empty means
	// ephemeral replicas.
	StoreRoot string
}

// ReplicaSet manages N in-process replicas with stable names, store
// directories and listen addresses, so tests (and topil-cluster) can kill
// and restart members while a router keeps routing to the same URLs.
type ReplicaSet struct {
	cfg   ReplicaSetConfig
	names []string
	addrs []string
	dirs  []string

	mu   sync.Mutex
	reps []*LocalReplica // nil while killed
}

// StartReplicaSet starts N replicas. On error, already-started replicas
// are shut down.
func StartReplicaSet(cfg ReplicaSetConfig) (*ReplicaSet, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("cluster: replica set needs n > 0")
	}
	s := &ReplicaSet{
		cfg:   cfg,
		names: make([]string, cfg.N),
		addrs: make([]string, cfg.N),
		dirs:  make([]string, cfg.N),
		reps:  make([]*LocalReplica, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		s.names[i] = fmt.Sprintf("replica-%d", i)
		if cfg.StoreRoot != "" {
			s.dirs[i] = filepath.Join(cfg.StoreRoot, s.names[i])
		}
		rep, err := StartReplica(ReplicaConfig{
			Name:     s.names[i],
			Serve:    s.replicaServeConfig(),
			StoreDir: s.dirs[i],
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.reps[i] = rep
		s.addrs[i] = rep.Addr()
	}
	return s, nil
}

// replicaServeConfig copies the template with a cleared registry: every
// replica owns private metrics (two replicas sharing one registry would
// fight over the serve_jobs_* gauges).
func (s *ReplicaSet) replicaServeConfig() serve.Config {
	cfg := s.cfg.Serve
	cfg.Telemetry = nil
	cfg.Store = nil
	return cfg
}

// Names returns the stable replica names in index order.
func (s *ReplicaSet) Names() []string { return append([]string(nil), s.names...) }

// Replicas returns the router-facing membership (every replica, alive or
// not — the ring is static; health discovery is the router's job).
func (s *ReplicaSet) Replicas() []Replica {
	out := make([]Replica, len(s.names))
	for i := range s.names {
		out[i] = Replica{Name: s.names[i], URL: "http://" + s.addrs[i]}
	}
	return out
}

// Replica returns the live replica at index i (nil while killed).
func (s *ReplicaSet) Replica(i int) *LocalReplica {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reps[i]
}

// Kill abruptly kills replica i (no-op if already dead).
func (s *ReplicaSet) Kill(i int) {
	s.mu.Lock()
	rep := s.reps[i]
	s.reps[i] = nil
	s.mu.Unlock()
	if rep != nil {
		rep.Kill()
	}
}

// Close kills every live replica.
func (s *ReplicaSet) Close() {
	for i := range s.reps {
		s.Kill(i)
	}
}
