package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// maxBodyBytes bounds request bodies (a 1024-job manifest fits easily).
const maxBodyBytes = 8 << 20

// traceSpans bounds the wall-time request trace ring served by
// GET /v1/trace; the oldest spans are dropped beyond it.
const traceSpans = 4096

// Config assembles a Server.
type Config struct {
	// ModelsDir is the artifacts directory holding <name>.json models.
	ModelsDir string
	// Workers sizes the simulation worker pool (default runtime.NumCPU()).
	Workers int
	// QueueCap bounds the simulation job queue (default 4×Workers).
	QueueCap int
	// Batch tunes the inference coalescing frontend.
	Batch BatcherConfig
	// Store, when non-nil, makes the job pool durable: every job state
	// transition is journaled through it and construction replays the
	// journal, so GET /v1/jobs/{id} survives a replica restart (see
	// internal/cluster's JournalStore).
	Store JobStore
	// Telemetry receives every metric family the server and its batchers
	// and job pool produce, and backs GET /metrics. Nil gets a private
	// registry (metrics still work, just not shared with the process
	// default).
	Telemetry *telemetry.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in,
	// since profiling endpoints do not belong on an open port by default.
	EnablePprof bool
	// Online configures DAgger-style continual imitation learning with
	// shadow-evaluated hot swaps (see internal/online and docs/ONLINE.md).
	Online OnlineConfig
}

// Server is the HTTP service: model registry + batching inference frontend
// + simulation job runner, with per-endpoint metrics.
type Server struct {
	cfg     Config
	reg     *Registry
	runner  *Runner
	metrics *Metrics
	tel     *telemetry.Registry
	tracer  *telemetry.Tracer // wall-time request spans, bounded ring
	clock   telemetry.Clock   // wall clock, origin = server start

	// draining is the replica-mode drain flag: set by POST /v1/drain, it
	// refuses new work with 503 + Retry-After while reads and in-flight
	// jobs keep being served, and is reported by GET /v1/healthz so a
	// router stops routing here.
	draining atomic.Bool

	// online is the continual-learning runtime (nil when disabled).
	online *onlineState

	mu       sync.Mutex
	batchers map[string]*Batcher
	closed   bool
}

// NewServer creates a server over the given configuration.
func NewServer(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4 * cfg.Workers
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	clock := telemetry.NewWallClock()
	tracer := telemetry.NewTracer(clock)
	tracer.SetMaxSpans(traceSpans)
	reg := NewRegistry(cfg.ModelsDir)
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		runner:   NewRunner(reg, cfg.Workers, cfg.QueueCap, cfg.Telemetry, cfg.Store),
		metrics:  NewMetrics(cfg.Telemetry),
		tel:      cfg.Telemetry,
		tracer:   tracer,
		clock:    clock,
		batchers: make(map[string]*Batcher),
	}
	// The uptime gauge reads the server's injected wall clock rather than
	// calling time.Now at scrape — the same clock-injection discipline the
	// deterministic packages use with sim time.
	cfg.Telemetry.GaugeFunc("serve_uptime_seconds",
		"seconds since the server was constructed", clock.Now)
	if cfg.Online.Enabled {
		// A misconfigured learner must not take serving down with it: log,
		// serve without it, and let the operator notice via GET /v1/online
		// (enabled=false) or OnlineManager() == nil.
		if err := s.startOnline(); err != nil {
			log.Printf("serve: online learning disabled: %v", err)
		}
	}
	return s
}

// Registry exposes the model registry.
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	route("GET /v1/healthz", s.handleHealthz)
	route("POST /v1/drain", s.handleDrain)
	route("GET /v1/models", s.handleModels)
	route("POST /v1/infer", s.handleInfer)
	route("POST /v1/sim", s.handleSim)
	route("GET /v1/jobs", s.handleJobs)
	route("GET /v1/jobs/{id}", s.handleJob)
	route("DELETE /v1/jobs/{id}", s.handleCancelJob)
	route("GET /v1/online", s.handleOnline)
	route("GET /v1/trace", s.handleTrace)
	route("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Shutdown drains the service: the inference frontends serve what they have
// accepted, and the job runner finishes in-flight simulations until ctx
// expires (then cancels them at the next simulator tick).
func (s *Server) Shutdown(ctx context.Context) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	batchers := make([]*Batcher, 0, len(s.batchers))
	for _, b := range s.batchers {
		batchers = append(batchers, b)
	}
	s.mu.Unlock()
	for _, b := range batchers {
		b.Close()
	}
	s.runner.Shutdown(ctx)
	// After the runner drains: in-flight sim jobs record visited states
	// until they finish, so the sample log must outlive them.
	s.closeOnline()
}

// batcherFor returns (creating on first use) the per-model batcher. All
// requests against one model share one batcher — that is what lets
// independent clients coalesce into one device invocation.
func (s *Server) batcherFor(name string) (*Batcher, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if b := s.batchers[name]; b != nil {
		s.mu.Unlock()
		return b, nil
	}
	s.mu.Unlock()

	// The batcher binds its backend per batch through the registry's
	// version chain: a Swap takes effect at the next batch boundary, so
	// in-flight batches complete against the version they acquired and no
	// batch ever mixes versions.
	src, err := s.reg.Source(name)
	if err != nil {
		return nil, err
	}
	model, err := s.reg.Model(name)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if b := s.batchers[name]; b != nil {
		return b, nil
	}
	bcfg := s.cfg.Batch
	bcfg.Registry = s.tel
	bcfg.Name = name
	if s.online != nil && name == s.online.model {
		mgr := s.online.manager
		bcfg.OnShadow = func(sb ShadowBatch) {
			mgr.ObserveShadow(sb.ActiveVersion, sb.ShadowVersion, sb.Active, sb.Shadow)
		}
	}
	b := NewBatcherSource(src, model.InputDim(), bcfg)
	s.batchers[name] = b
	return b, nil
}

// --- handlers ---

// QueueHealth reports one bounded queue's fill in GET /v1/healthz.
type QueueHealth struct {
	Depth int `json:"depth"`
	Cap   int `json:"cap"`
}

// fill returns the queue's fill fraction in [0, 1].
func (q QueueHealth) fill() float64 {
	if q.Cap <= 0 {
		return 0
	}
	return float64(q.Depth) / float64(q.Cap)
}

// HealthResponse is the body of GET /v1/healthz: liveness plus the
// backpressure signals a cluster router sheds load on. Load is the worst
// queue-fill fraction in [0, 1].
type HealthResponse struct {
	Status   string      `json:"status"` // "ok" | "draining"
	Draining bool        `json:"draining"`
	Jobs     QueueHealth `json:"jobs"`
	Infer    QueueHealth `json:"infer"`
	Running  int         `json:"running"`
	Load     float64     `json:"load"`
}

// health assembles the current health snapshot.
func (s *Server) health() HealthResponse {
	h := HealthResponse{
		Status:   "ok",
		Draining: s.draining.Load(),
		Jobs:     QueueHealth{Depth: s.runner.QueueDepth(), Cap: s.runner.QueueCap()},
		Running:  int(s.runner.running.Value()),
	}
	if h.Draining {
		h.Status = "draining"
	}
	s.mu.Lock()
	for _, b := range s.batchers {
		h.Infer.Depth += b.QueueDepth()
		h.Infer.Cap += b.QueueCap()
	}
	s.mu.Unlock()
	if h.Infer.Cap == 0 {
		// No batcher instantiated yet: report the configured bound so the
		// router's fill fractions are meaningful from the first poll.
		h.Infer.Cap = s.cfg.Batch.QueueCap
		if h.Infer.Cap <= 0 {
			h.Infer.Cap = DefaultBatcherConfig().QueueCap
		}
	}
	h.Load = h.Jobs.fill()
	if f := h.Infer.fill(); f > h.Load {
		h.Load = f
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.health())
}

// handleDrain is the replica-side drain protocol: the first POST flips the
// server into draining (new POST /v1/infer and /v1/sim get 503 with a
// Retry-After hint; reads and in-flight jobs keep being served) and every
// POST returns the current health, so draining is idempotent and
// observable. A router drains a replica before retiring it.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.draining.Store(true)
	WriteJSON(w, http.StatusOK, s.health())
}

// retryAfterSeconds derives the Retry-After hint from a queue's fill: an
// empty queue suggests an immediate retry (1 s floor), a full one the cap
// of 5 s — enough spread for closed-loop clients to desynchronize.
func retryAfterSeconds(depth, cap int) int {
	if cap <= 0 || depth < 0 {
		return 1
	}
	if depth > cap {
		depth = cap
	}
	return 1 + (4*depth)/cap
}

// writeRetryError writes an error response carrying a Retry-After header —
// the 429/503 contract: every shed response tells the client when to come
// back, derived from current queue depth.
func writeRetryError(w http.ResponseWriter, status int, err error, retryAfter int) {
	if retryAfter < 1 {
		retryAfter = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter))
	WriteError(w, status, err)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	names, err := s.reg.List()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if names == nil {
		names = []string{}
	}
	WriteJSON(w, http.StatusOK, map[string]interface{}{"models": names})
}

// InferRequest is the body of POST /v1/infer.
type InferRequest struct {
	Model string `json:"model"`
	// Inputs holds one feature vector per inference. The rows are queued on
	// the shared batcher as one unit and ride in one device batch, which
	// also carries concurrent requests from other clients.
	Inputs [][]float64 `json:"inputs"`
}

// InferResponse is the body of a successful POST /v1/infer.
type InferResponse struct {
	Model   string      `json:"model"`
	Outputs [][]float64 `json:"outputs"`
	// BatchSizes reports, per input row, the row count of the coalesced
	// device batch that served it — the same for every row of a request
	// (more than the request's rows means coalescing with other requests).
	BatchSizes []int `json:"batchSizes"`
	// DeviceLatencyUs is the modelled NPU cost of the batch the request
	// rode in — the paper's near-constant invocation cost.
	DeviceLatencyUs float64 `json:"deviceLatencyUs"`
	WallUs          float64 `json:"wallUs"`
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	var req InferRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Model == "" {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: missing model name"))
		return
	}
	if len(req.Inputs) == 0 {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: empty inputs"))
		return
	}
	if len(req.Inputs) > 4096 {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: %d inputs exceed the 4096 limit", len(req.Inputs)))
		return
	}
	if s.draining.Load() {
		writeRetryError(w, http.StatusServiceUnavailable, ErrDraining, 2)
		return
	}
	b, err := s.batcherFor(req.Model)
	if err != nil {
		WriteError(w, statusFor(err), err)
		return
	}

	start := time.Now()
	outs, info, err := b.SubmitRows(r.Context(), req.Inputs)
	if errors.Is(err, ErrOverloaded) {
		writeRetryError(w, statusFor(err), err, retryAfterSeconds(b.QueueDepth(), b.QueueCap()))
		return
	}
	if err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	resp := InferResponse{
		Model:           req.Model,
		Outputs:         outs,
		BatchSizes:      make([]int, len(outs)),
		DeviceLatencyUs: float64(info.DeviceLatency) / float64(time.Microsecond),
	}
	for i := range resp.BatchSizes {
		resp.BatchSizes[i] = info.BatchSize
	}
	resp.WallUs = float64(time.Since(start)) / float64(time.Microsecond)
	WriteJSON(w, http.StatusOK, resp)
}

// handleOnline serves the continual learner's status snapshot; when the
// learner is disabled it reports the zero status with enabled=false.
func (s *Server) handleOnline(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.onlineStatus())
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if s.draining.Load() {
		writeRetryError(w, http.StatusServiceUnavailable, ErrDraining, 2)
		return
	}
	// A router-minted job ID (consistent-hash sharding key) is honored so
	// GET /v1/jobs/{id} lands on the same replica.
	snap, err := s.runner.SubmitID(r.Header.Get(JobIDHeader), req)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			writeRetryError(w, statusFor(err), err,
				retryAfterSeconds(s.runner.QueueDepth(), s.runner.QueueCap()))
			return
		}
		WriteError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	WriteJSON(w, http.StatusAccepted, snap)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.runner.List()
	if jobs == nil {
		jobs = []JobSnapshot{}
	}
	WriteJSON(w, http.StatusOK, map[string]interface{}{"jobs": jobs})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.runner.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no such job"))
		return
	}
	WriteJSON(w, http.StatusOK, j.Snapshot())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.runner.Cancel(id) {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no such job"))
		return
	}
	j, _ := s.runner.Get(id)
	WriteJSON(w, http.StatusOK, j.Snapshot())
}

// handleMetrics serves the telemetry registry: Prometheus text exposition
// by default, the JSON dump with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = s.tel.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = s.tel.WritePrometheus(w)
}

// handleTrace serves the bounded wall-time request-span ring as a Chrome
// trace (chrome://tracing, ui.perfetto.dev). Timestamps are seconds since
// server start on the injected wall clock.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	ts := telemetry.NewTraceSet()
	dst := ts.Tracer("serve")
	spans, _ := s.tracer.Spans()
	for _, sp := range spans {
		if sp.Dur <= 0 {
			dst.InstantAt(sp.Name, sp.Start)
			continue
		}
		dst.StartAt(sp.Name, sp.Start).EndAt(sp.Start + sp.Dur)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = ts.WriteChrome(w)
}

// --- helpers ---

// statusFor maps service errors to HTTP statuses: backpressure to 429,
// shutdown to 503, unknown models to 404, device-side inference failures
// to 502, everything else (validation) to 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrConflict):
		return http.StatusConflict
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrVersionNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrInference):
		return http.StatusBadGateway
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusBadRequest
	}
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return false
	}
	return true
}

// WriteJSON writes v as the indented JSON body of a status response — the
// body shape of every /v1 endpoint, on replicas and the cluster router.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the /v1 error envelope {"error": "<message>"}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}
