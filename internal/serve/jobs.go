package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// JobState is the lifecycle state of a simulation job.
type JobState string

// Job lifecycle: Queued -> Running -> one of Done / Failed / Canceled.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// SimRequest is the body of POST /v1/sim: one scenario.Spec, with its
// defaults, range checks and policy registry.
type SimRequest = scenario.Spec

// AppResult is the per-application outcome in a SimResult.
type AppResult struct {
	Name         string  `json:"name"`
	QoSGips      float64 `json:"qosGips"`      // GIPS, 1e9 instr/s
	AchievedGips float64 `json:"achievedGips"` // GIPS, 1e9 instr/s
	Finished     bool    `json:"finished"`
	Violated     bool    `json:"violated"`
	Core         int     `json:"core"`
}

// SimResult is the job payload built from sim.Result.
type SimResult struct {
	Technique       string      `json:"technique"`
	Duration        float64     `json:"duration"`
	AvgTemp         float64     `json:"avgTemp"`  // °C
	PeakTemp        float64     `json:"peakTemp"` // °C
	Violations      int         `json:"violations"`
	Migrations      int         `json:"migrations"`
	ThrottleSeconds float64     `json:"throttleSeconds"`
	OverheadSeconds float64     `json:"overheadSeconds"`
	AvgUtil         float64     `json:"avgUtil"`
	PeakUtil        float64     `json:"peakUtil"`
	TotalEnergyJ    float64     `json:"totalEnergyJ"`
	Apps            []AppResult `json:"apps"`
}

// newSimResult converts an engine result.
func newSimResult(technique string, res *sim.Result) *SimResult {
	out := &SimResult{
		Technique:       technique,
		Duration:        res.Duration,
		AvgTemp:         res.AvgTemp,
		PeakTemp:        res.PeakTemp,
		Violations:      res.Violations,
		Migrations:      res.Migrations,
		ThrottleSeconds: res.ThrottleSeconds,
		OverheadSeconds: res.OverheadSeconds,
		AvgUtil:         res.AvgUtil,
		PeakUtil:        res.PeakUtil,
		TotalEnergyJ:    res.TotalEnergyJ(),
	}
	for _, a := range res.Apps {
		out.Apps = append(out.Apps, AppResult{
			Name:         a.Name,
			QoSGips:      a.QoS / 1e9,
			AchievedGips: a.MeanIPS / 1e9,
			Finished:     a.Finished,
			Violated:     a.Violated,
			Core:         int(a.Core),
		})
	}
	return out
}

// Job is one tracked simulation job.
type Job struct {
	id string

	mu       sync.Mutex
	state    JobState
	req      SimRequest
	err      string
	result   *SimResult
	created  time.Time
	started  time.Time
	finished time.Time
	runCtx   context.Context
	cancel   context.CancelFunc
}

// JobSnapshot is the JSON view of a Job.
type JobSnapshot struct {
	ID       string     `json:"id"`
	State    JobState   `json:"state"`
	Policy   string     `json:"policy"`
	Model    string     `json:"model,omitempty"`
	Error    string     `json:"error,omitempty"`
	QueuedMs float64    `json:"queuedMs"`
	RunMs    float64    `json:"runMs"`
	Result   *SimResult `json:"result,omitempty"`
}

// Snapshot returns the job's current state.
func (j *Job) Snapshot() JobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobSnapshot{
		ID:     j.id,
		State:  j.state,
		Policy: j.req.Policy,
		Model:  j.req.Model,
		Error:  j.err,
		Result: j.result,
	}
	switch j.state {
	case StateQueued:
		s.QueuedMs = ms(time.Since(j.created))
	case StateRunning:
		s.QueuedMs = ms(j.started.Sub(j.created))
		s.RunMs = ms(time.Since(j.started))
	default:
		if !j.started.IsZero() {
			s.QueuedMs = ms(j.started.Sub(j.created))
			s.RunMs = ms(j.finished.Sub(j.started))
		} else {
			s.QueuedMs = ms(j.finished.Sub(j.created))
		}
	}
	return s
}

// setState transitions the job, stamping timestamps.
func (j *Job) setState(st JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = st
	switch st {
	case StateRunning:
		j.started = time.Now()
	case StateDone, StateFailed, StateCanceled:
		j.finished = time.Now()
	}
}

// ErrConflict marks a submission reusing an existing job ID; the HTTP
// layer maps it to 409.
var ErrConflict = errors.New("serve: job id already exists")

// ErrDraining marks work refused because the replica is draining (POST
// /v1/drain); the HTTP layer maps it to 503 with a Retry-After hint.
var ErrDraining = errors.New("serve: draining")

// Runner executes simulation jobs on a bounded worker pool. Submissions
// beyond the queue capacity fail fast with ErrOverloaded (429 at the HTTP
// layer); Shutdown drains in-flight work.
type Runner struct {
	reg   *Registry
	store JobStore // nil: in-memory only

	queue chan *Job
	wg    sync.WaitGroup

	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job
	order  []string
	seq    int

	// hookMu guards the optional continual-learning hook, installed after
	// construction by the server's online wiring.
	hookMu  sync.Mutex
	observe func(model string, obs core.EpochObservation)

	done, failed, canceled, submitted, rejected *telemetry.Counter
	running                                     *telemetry.Gauge
}

// NewRunner starts `workers` goroutines consuming a queue of `queueCap`
// pending jobs. The registry resolves TOP-IL models; tel receives the
// pool's metric families (serve_jobs_*) — nil gets a private registry. A
// non-nil store makes the pool durable: every state transition is
// journaled before it becomes observable, and construction replays the
// journal — terminal jobs are restored for GET /v1/jobs/{id}, interrupted
// (queued/running) jobs are re-enqueued so every accepted job still
// reaches a terminal state.
func NewRunner(reg *Registry, workers, queueCap int, tel *telemetry.Registry, store JobStore) *Runner {
	if workers <= 0 {
		workers = 1
	}
	if queueCap <= 0 {
		queueCap = 16
	}
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{
		reg:       reg,
		store:     store,
		queue:     make(chan *Job, queueCap),
		baseCtx:   ctx,
		cancelAll: cancel,
		jobs:      make(map[string]*Job),
		done: tel.CounterVec("serve_jobs_finished_total",
			"simulation jobs by terminal state", "state").With(string(StateDone)),
		failed: tel.CounterVec("serve_jobs_finished_total",
			"simulation jobs by terminal state", "state").With(string(StateFailed)),
		canceled: tel.CounterVec("serve_jobs_finished_total",
			"simulation jobs by terminal state", "state").With(string(StateCanceled)),
		submitted: tel.Counter("serve_jobs_submitted_total",
			"simulation jobs accepted into the queue"),
		rejected: tel.Counter("serve_jobs_rejected_total",
			"simulation jobs rejected with backpressure (429)"),
		running: tel.Gauge("serve_jobs_running",
			"simulation jobs currently executing"),
	}
	tel.Gauge("serve_jobs_workers", "worker pool size").Set(float64(workers))
	tel.Gauge("serve_jobs_queue_cap", "job queue capacity").Set(float64(queueCap))
	tel.GaugeFunc("serve_jobs_queue_depth", "simulation jobs waiting for a worker",
		func() float64 { return float64(len(r.queue)) })
	r.recover()
	for i := 0; i < workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// recover replays the store (when present) before the workers start:
// terminal jobs are restored as read-only snapshots, interrupted jobs are
// re-enqueued for execution. Jobs that no longer fit the queue are marked
// failed — a terminal state the journal records, so the accepted-implies-
// terminal guarantee survives even a shrunk queue capacity.
func (r *Runner) recover() {
	if r.store == nil {
		return
	}
	recs, err := r.store.Replay()
	if err != nil {
		log.Printf("serve: job store replay: %v", err)
		return
	}
	folded := FoldJobRecords(recs)
	ids := make([]string, 0, len(folded))
	for _, rec := range folded {
		ids = append(ids, rec.ID)
	}
	r.seq = maxRunnerSeq(ids)
	for _, rec := range folded {
		j := &Job{id: rec.ID, req: *rec.Req, created: time.Now()}
		if isTerminal(rec.State) {
			j.state = rec.State
			j.err = rec.Err
			j.result = rec.Result
			j.finished = time.Now()
			r.jobs[j.id] = j
			r.order = append(r.order, j.id)
			continue
		}
		jobCtx, jobCancel := context.WithCancel(r.baseCtx)
		j.state = StateQueued
		j.runCtx = jobCtx
		j.cancel = jobCancel
		select {
		case r.queue <- j:
		default:
			j.state = StateFailed
			j.err = "recovery: job queue full"
			j.finished = time.Now()
			jobCancel()
			r.journal(JobRecord{ID: j.id, State: StateFailed, Err: j.err})
		}
		r.jobs[j.id] = j
		r.order = append(r.order, j.id)
	}
	if n := len(folded); n > 0 {
		log.Printf("serve: job store recovered %d job(s)", n)
	}
}

// journal appends one record to the store. Append failures after
// acceptance are logged, not fatal: the in-memory state stays correct and
// the next restart simply re-runs the affected job.
func (r *Runner) journal(rec JobRecord) {
	if r.store == nil {
		return
	}
	if err := r.store.Append(rec); err != nil {
		log.Printf("serve: job store append (%s -> %s): %v", rec.ID, rec.State, err)
	}
}

// SetObserve installs a hook receiving every inference epoch of every
// TOP-IL sim job, tagged with the job's model name — the continual
// learner's visited-state recorder. Observation slices are reused by the
// simulator; the hook must copy what it keeps.
func (r *Runner) SetObserve(fn func(model string, obs core.EpochObservation)) {
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	r.observe = fn
}

func (r *Runner) getObserve() func(string, core.EpochObservation) {
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	return r.observe
}

// SubmitID validates and enqueues a job, returning its snapshot. A
// non-empty id is used verbatim (the cluster router mints IDs so that
// GET /v1/jobs/{id} shards to the same replica); an empty id gets a
// runner-minted one. Reusing a live ID fails with ErrConflict (409).
func (r *Runner) SubmitID(id string, req SimRequest) (JobSnapshot, error) {
	if id != "" {
		if err := validJobID(id); err != nil {
			return JobSnapshot{}, err
		}
	}
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return JobSnapshot{}, err
	}
	// Build the manager eagerly so a bad model or a policy without artifacts
	// here fails the submission, not the job minutes later.
	if _, err := scenario.NewManager(req.Policy, req.Backend, r.source(req.Model)); err != nil {
		return JobSnapshot{}, err
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return JobSnapshot{}, ErrClosed
	}
	if id == "" {
		r.seq++
		id = fmt.Sprintf("j-%06d", r.seq)
	} else if _, exists := r.jobs[id]; exists {
		r.mu.Unlock()
		return JobSnapshot{}, fmt.Errorf("%w: %q", ErrConflict, id)
	}
	if len(r.queue) == cap(r.queue) {
		r.rejected.Inc()
		r.mu.Unlock()
		return JobSnapshot{}, ErrOverloaded
	}
	// Journal before any worker can see the job: a 202 implies the queued
	// record is durable, and the job's later records follow it. On a store
	// failure nothing is queued or registered, so the client retries
	// cleanly.
	if r.store != nil {
		reqCopy := req
		if err := r.store.Append(JobRecord{ID: id, State: StateQueued, Req: &reqCopy}); err != nil {
			r.mu.Unlock()
			return JobSnapshot{}, fmt.Errorf("serve: job store: %w", err)
		}
	}
	jobCtx, jobCancel := context.WithCancel(r.baseCtx)
	j := &Job{
		id:      id,
		state:   StateQueued,
		req:     req,
		created: time.Now(),
		runCtx:  jobCtx,
		cancel:  jobCancel,
	}
	// Only submitters send on the queue, each under r.mu, so the room
	// checked above is still there.
	r.queue <- j
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	r.submitted.Inc()
	r.mu.Unlock()
	return j.Snapshot(), nil
}

// QueueDepth returns the number of jobs waiting for a worker — the signal
// behind Retry-After hints and the cluster router's load shedding.
func (r *Runner) QueueDepth() int { return len(r.queue) }

// QueueCap returns the job queue capacity.
func (r *Runner) QueueCap() int { return cap(r.queue) }

// Get returns a job by ID.
func (r *Runner) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// List returns snapshots of every job in submission order.
func (r *Runner) List() []JobSnapshot {
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	r.mu.Unlock()
	out := make([]JobSnapshot, 0, len(ids))
	for _, id := range ids {
		if j, ok := r.Get(id); ok {
			out = append(out, j.Snapshot())
		}
	}
	return out
}

// Cancel requests cancellation of a queued or running job. Queued jobs are
// skipped by the workers; running jobs stop at the next simulator tick.
func (r *Runner) Cancel(id string) bool {
	j, ok := r.Get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// Shutdown stops accepting submissions and drains: queued and running jobs
// keep executing until done or until ctx expires, at which point they are
// canceled at the next simulator tick.
func (r *Runner) Shutdown(ctx context.Context) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.queue)

	finished := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		r.cancelAll()
		<-finished
	}
}

// worker consumes the queue until it is closed and drained.
func (r *Runner) worker() {
	defer r.wg.Done()
	for j := range r.queue {
		r.run(j)
	}
}

// run executes one job.
func (r *Runner) run(j *Job) {
	j.mu.Lock()
	ctx := j.runCtx
	j.mu.Unlock()
	if ctx.Err() != nil {
		j.setState(StateCanceled)
		r.count(StateCanceled)
		r.journal(JobRecord{ID: j.id, State: StateCanceled})
		return
	}
	j.setState(StateRunning)
	r.journal(JobRecord{ID: j.id, State: StateRunning})
	r.running.Add(1)
	defer r.running.Add(-1)
	res, err := r.execute(ctx, j.req)
	switch {
	case err != nil:
		j.mu.Lock()
		j.err = err.Error()
		j.mu.Unlock()
		j.setState(StateFailed)
		r.count(StateFailed)
		r.journal(JobRecord{ID: j.id, State: StateFailed, Err: err.Error()})
	case ctx.Err() != nil:
		j.setState(StateCanceled)
		r.count(StateCanceled)
		r.journal(JobRecord{ID: j.id, State: StateCanceled})
	default:
		j.mu.Lock()
		j.result = res
		j.mu.Unlock()
		j.setState(StateDone)
		r.count(StateDone)
		r.journal(JobRecord{ID: j.id, State: StateDone, Result: res})
	}
}

func (r *Runner) count(st JobState) {
	switch st {
	case StateDone:
		r.done.Inc()
	case StateFailed:
		r.failed.Inc()
	case StateCanceled:
		r.canceled.Inc()
	}
}

// execute builds and runs the simulation described by req, stopping early
// when ctx is canceled.
func (r *Runner) execute(ctx context.Context, req SimRequest) (*SimResult, error) {
	req = req.WithDefaults() // recovered requests skip SubmitID
	cfg, jobs, err := req.Build()
	if err != nil {
		return nil, err
	}
	mgr, err := scenario.NewManager(req.Policy, req.Backend, r.source(req.Model))
	if err != nil {
		return nil, err
	}
	engine := sim.New(cfg)
	engine.AddJobs(jobs)
	res := engine.RunUntil(mgr, req.Duration, func() bool { return ctx.Err() != nil })
	return newSimResult(mgr.Name(), res), nil
}

// source is the policy-registry source of a job on model: the registry's
// active model, observed by the continual learner when it is installed.
// The service has no Q-tables, so TOP-RL fails with the registry's error.
func (r *Runner) source(model string) scenario.Source {
	src := scenario.Source{Model: func() (*nn.MLP, error) { return r.reg.Model(model) }}
	if fn := r.getObserve(); fn != nil {
		src.Observe = func(obs core.EpochObservation) { fn(model, obs) }
	}
	return src
}
