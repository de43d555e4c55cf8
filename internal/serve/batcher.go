package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/npu"
	"repro/internal/telemetry"
)

// Errors returned by Batcher.SubmitRows; the HTTP layer maps them to
// 429/503/502.
var (
	ErrOverloaded = errors.New("serve: queue full")
	ErrClosed     = errors.New("serve: shutting down")
	// ErrInference marks a device-side failure: the backend panicked on a
	// batch or returned no output for a row. It is delivered per request —
	// a faulty row fails its own request, never the rest of its batch.
	ErrInference = errors.New("serve: inference failed")
)

// BatcherConfig tunes the coalescing frontend.
type BatcherConfig struct {
	// MaxBatch stops a batch taking further requests once it holds this
	// many rows — the NPU's wave width (npu.NPU.Lanes) is the natural
	// choice. Requests are never split, so a batch may exceed it.
	MaxBatch int
	// QueueCap bounds the number of queued requests, whatever their row
	// counts; SubmitRows returns ErrOverloaded beyond it (backpressure
	// instead of unbounded queueing).
	QueueCap int
	// MaxInflight bounds concurrently executing batches — the device queue
	// depth. When every slot is busy the collector stops admitting work,
	// the queue fills, and SubmitRows starts rejecting: end-to-end
	// backpressure instead of unbounded dispatch goroutines.
	MaxInflight int
	// Registry receives the batcher's metric families (serve_batcher_*),
	// labelled by Name. Nil gets a private registry, so Stats works for
	// standalone batchers.
	Registry *telemetry.Registry
	// Name is the batcher's `model` label value (the served model's name).
	Name string
	// OnShadow, when set, receives every successfully served batch that a
	// shadow backend also scored (see BackendSource.Shadow). It is called
	// from dispatch goroutines after the active results were delivered —
	// shadow scoring never delays or alters what clients receive — and
	// must be safe for concurrent use.
	OnShadow func(ShadowBatch)
}

// BackendSource hands the batcher its inference backend per batch. Acquire
// is called exactly once per batch, so every row of a batch is served by
// the same backend version — a Swap between two batches is atomic, a Swap
// during a batch leaves that batch on the version it acquired. Both
// methods must be lock-free-fast and safe for concurrent use.
type BackendSource interface {
	// Acquire snapshots the backend serving new batches and its version.
	// A nil backend means the source has nothing active (the batch fails).
	Acquire() (npu.Backend, int)
	// Shadow snapshots the mirrored candidate, if any.
	Shadow() (npu.Backend, int, bool)
}

// fixedSource adapts a plain backend to BackendSource: version 0, no
// shadow — the unversioned single-model behaviour of NewBatcher.
type fixedSource struct{ be npu.Backend }

func (f fixedSource) Acquire() (npu.Backend, int)      { return f.be, 0 }
func (f fixedSource) Shadow() (npu.Backend, int, bool) { return nil, 0, false }

// ShadowBatch is one mirrored batch: the inputs, what the active version
// served, and what the shadow version would have answered.
type ShadowBatch struct {
	ActiveVersion int
	ShadowVersion int
	Inputs        [][]float64
	Active        [][]float64
	Shadow        [][]float64
}

// DefaultBatcherConfig returns production defaults: one NPU wave per batch.
func DefaultBatcherConfig() BatcherConfig {
	return BatcherConfig{MaxBatch: 16, QueueCap: 256, MaxInflight: 4}
}

// batchReq is one pending request: all its rows ride in one batch.
type batchReq struct {
	rows [][]float64
	out  chan batchResp // buffered(1): the collector never blocks on delivery
}

// batchResp carries one request's result out of a dispatched batch.
type batchResp struct {
	outs      [][]float64
	device    time.Duration // modelled device latency of the whole batch
	batchSize int           // rows in the batch
	version   int           // model version the batch was served by
	err       error         // per-request failure (wraps ErrInference)
}

// SubmitInfo reports how a request was served.
type SubmitInfo struct {
	// BatchSize is the row count of the coalesced batch this request rode
	// in; every row of a request rides in the same batch.
	BatchSize int
	// DeviceLatency is the modelled accelerator cost of that batch — by the
	// paper's Fig. 12 nearly independent of BatchSize on the NPU.
	DeviceLatency time.Duration
	// ModelVersion is the registry version that served the batch (0 for
	// unversioned backends). Every row of a batch reports the same value.
	ModelVersion int
}

// Batcher coalesces concurrent inference submissions into batches, the
// serving-side analogue of the paper's batched NPU call: one non-blocking
// device invocation serves every application's query at once, so
// per-request latency stays near-constant under fan-in.
//
// The batcher is work-conserving: a single collector goroutine takes the
// first queued request, waits for a free device slot (never for company),
// adds whatever else queued meanwhile up to MaxBatch rows, and hands the
// batch to a dispatch goroutine (mirroring npu.InferAsync). Batches grow
// under load, because requests pile up while every slot is busy; a lone
// request on an idle device is dispatched at once.
type Batcher struct {
	src      BackendSource
	inputDim int
	cfg      BatcherConfig

	reqs chan batchReq
	quit chan struct{}
	sem  chan struct{} // in-flight batch slots

	collector sync.WaitGroup
	inflight  sync.WaitGroup

	mu     sync.Mutex
	closed bool
	stats  batcherMetrics
}

// batcherMetrics are the coalescing counters as telemetry handles, read
// through GET /metrics. Every field is lock-free, so the flush path never
// serializes on a stats mutex.
type batcherMetrics struct {
	requests    *telemetry.Counter // rows accepted
	rejected    *telemetry.Counter // rows refused with ErrOverloaded
	flushFull   *telemetry.Counter
	flushTimer  *telemetry.Counter   // batches dispatched with fewer than MaxBatch rows
	batchSize   *telemetry.Histogram // rows per batch: count = batches, max = largest, sum/count = mean
	inferErrors *telemetry.Counter   // rows of requests failed with ErrInference
	batchPanics *telemetry.Counter   // batches whose device call panicked
	queueDepth  *telemetry.Gauge     // queued requests, updated on queue transitions
}

// batchSizeBuckets spans one row through two NPU waves; batch sizes are
// small integers, so unit-width buckets keep the histogram exact.
var batchSizeBuckets = telemetry.LinearBuckets(1, 1, 32)

// newBatcherMetrics resolves the serve_batcher_* family handles for one
// model label.
func newBatcherMetrics(reg *telemetry.Registry, model string) batcherMetrics {
	return batcherMetrics{
		requests: reg.CounterVec("serve_batcher_requests_total",
			"inference rows submitted, rejected ones included", "model").With(model),
		rejected: reg.CounterVec("serve_batcher_rejected_total",
			"inference rows rejected with backpressure (429)", "model").With(model),
		flushFull: reg.CounterVec("serve_batcher_flush_full_total",
			"batches dispatched with at least MaxBatch rows", "model").With(model),
		flushTimer: reg.CounterVec("serve_batcher_flush_timer_total",
			"batches dispatched with fewer than MaxBatch rows", "model").With(model),
		batchSize: reg.HistogramVec("serve_batcher_batch_size",
			"coalesced rows per device invocation", batchSizeBuckets, "model").With(model),
		inferErrors: reg.CounterVec("serve_batcher_infer_errors_total",
			"rows of requests failed with a device-side inference error", "model").With(model),
		batchPanics: reg.CounterVec("serve_batcher_panics_total",
			"batches whose device call panicked", "model").With(model),
		queueDepth: reg.GaugeVec("serve_batcher_queue_depth",
			"inference requests waiting for a batch", "model").With(model),
	}
}

// NewBatcher starts a batcher over one fixed backend. inputDim guards
// submissions (the backend's model would panic on a wrong dimension deep
// inside a dispatch goroutine otherwise). Close must be called to release
// the collector.
func NewBatcher(backend npu.Backend, inputDim int, cfg BatcherConfig) *Batcher {
	if backend == nil {
		panic("serve: nil backend")
	}
	return NewBatcherSource(fixedSource{be: backend}, inputDim, cfg)
}

// NewBatcherSource starts a batcher that re-acquires its backend from src
// once per batch — the hot-swappable form. See BackendSource for the
// version-atomicity contract. Panics if src is nil (a wiring bug, not a
// runtime condition).
func NewBatcherSource(src BackendSource, inputDim int, cfg BatcherConfig) *Batcher {
	if src == nil {
		panic("serve: nil backend source")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultBatcherConfig().MaxBatch
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultBatcherConfig().QueueCap
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultBatcherConfig().MaxInflight
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Name == "" {
		cfg.Name = "default"
	}
	b := &Batcher{
		src:      src,
		inputDim: inputDim,
		cfg:      cfg,
		reqs:     make(chan batchReq, cfg.QueueCap),
		quit:     make(chan struct{}),
		sem:      make(chan struct{}, cfg.MaxInflight),
		stats:    newBatcherMetrics(cfg.Registry, cfg.Name),
	}
	b.collector.Add(1)
	go b.collect()
	return b
}

// Submit is SubmitRows for a single input vector.
func (b *Batcher) Submit(ctx context.Context, in []float64) ([]float64, SubmitInfo, error) {
	outs, info, err := b.SubmitRows(ctx, [][]float64{in})
	if err != nil {
		return nil, info, err
	}
	return outs[0], info, nil
}

// SubmitRows enqueues one request's input vectors as a single queue entry
// and blocks until their outputs are ready, the context is canceled, or the
// batcher shuts down. The rows ride in one device batch, and the request is
// admitted or refused whole: it never blocks on a full queue, failing fast
// with ErrOverloaded beyond QueueCap queued requests. The returned outputs
// are capped, so appending to them never touches another request's rows.
func (b *Batcher) SubmitRows(ctx context.Context, rows [][]float64) ([][]float64, SubmitInfo, error) {
	for _, in := range rows {
		if b.inputDim > 0 && len(in) != b.inputDim {
			return nil, SubmitInfo{}, fmt.Errorf("serve: input dim %d, want %d", len(in), b.inputDim)
		}
	}
	if len(rows) == 0 {
		return nil, SubmitInfo{}, nil
	}
	req := batchReq{rows: rows, out: make(chan batchResp, 1)}
	// Enqueue under the closed-check mutex: Close sets closed before
	// signalling the collector, so any request admitted here is in the
	// queue before the final drain and is guaranteed an answer.
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, SubmitInfo{}, ErrClosed
	}
	b.stats.requests.Add(float64(len(rows)))
	select {
	case b.reqs <- req:
		b.stats.queueDepth.Set(float64(len(b.reqs)))
		b.mu.Unlock()
	default:
		b.stats.rejected.Add(float64(len(rows)))
		b.mu.Unlock()
		return nil, SubmitInfo{}, ErrOverloaded
	}

	select {
	case resp := <-req.out:
		if resp.err != nil {
			return nil, SubmitInfo{BatchSize: resp.batchSize, ModelVersion: resp.version}, resp.err
		}
		return resp.outs, SubmitInfo{BatchSize: resp.batchSize, DeviceLatency: resp.device,
			ModelVersion: resp.version}, nil
	case <-ctx.Done():
		// The collector will still compute and deliver into the buffered
		// channel; the result is simply discarded.
		return nil, SubmitInfo{}, ctx.Err()
	}
}

// collect is the single collector goroutine. After Close it keeps
// dispatching until the queue is empty, so no accepted request is dropped;
// Close refuses new submissions before signalling quit, so the queue only
// shrinks from then on.
func (b *Batcher) collect() {
	defer b.collector.Done()
	for {
		var first batchReq
		select {
		case first = <-b.reqs:
		case <-b.quit:
			select {
			case first = <-b.reqs:
			default:
				return
			}
		}
		b.stats.queueDepth.Set(float64(len(b.reqs)))
		// Wait for a device slot, not for company. With every slot busy
		// this blocks the collector: arrivals queue up and ride in this
		// batch, and a full queue pushes back on SubmitRows.
		b.sem <- struct{}{}
		batch, rows := []batchReq{first}, len(first.rows)
	gather:
		for rows < b.cfg.MaxBatch {
			select {
			case r := <-b.reqs:
				batch = append(batch, r)
				rows += len(r.rows)
			default:
				break gather
			}
		}
		b.stats.queueDepth.Set(float64(len(b.reqs)))
		b.dispatch(batch, rows)
	}
}

// dispatch runs a batch on the device slot the collector acquired without
// blocking the collector, mirroring the non-blocking npu.InferAsync call of
// the paper's daemon.
func (b *Batcher) dispatch(batch []batchReq, rows int) {
	if rows >= b.cfg.MaxBatch {
		b.stats.flushFull.Inc()
	} else {
		b.stats.flushTimer.Inc()
	}
	b.stats.batchSize.Observe(float64(rows))

	b.inflight.Add(1)
	go func() {
		defer func() {
			<-b.sem
			b.inflight.Done()
		}()
		// One Acquire per batch: every row is served by the same backend
		// version, so a concurrent Swap can never split a batch.
		be, ver := b.src.Acquire()
		if be == nil {
			err := fmt.Errorf("%w: no active model version", ErrNotFound)
			b.stats.inferErrors.Add(float64(rows))
			for _, r := range batch {
				r.out <- batchResp{err: err, batchSize: rows}
			}
			return
		}
		ins := make([][]float64, 0, rows)
		for _, r := range batch {
			ins = append(ins, r.rows...)
		}
		outs, err := b.runBatch(be, ins)
		var dev time.Duration
		if err == nil {
			dev = be.Latency(rows)
		} else {
			b.stats.batchPanics.Inc()
		}
		off := 0
		for _, r := range batch {
			n := len(r.rows)
			resp := batchResp{batchSize: rows, version: ver, err: err}
			// The message names the row's index in the batch "request", as
			// the wire fixture err_infer_fault.json pins it.
			for i := off; resp.err == nil && i < off+n; i++ {
				if i >= len(outs) || outs[i] == nil {
					resp.err = fmt.Errorf("%w: device %s returned no output for request %d of a batch of %d",
						ErrInference, be.Name(), i, rows)
				}
			}
			if resp.err == nil {
				// Capped, so an append on one request's outputs
				// reallocates instead of overwriting its neighbour's.
				resp.outs, resp.device = outs[off:off+n:off+n], dev
			} else {
				// Counted before delivery: a caller holding the error
				// already finds its rows in the counter.
				b.stats.inferErrors.Add(float64(n))
			}
			r.out <- resp
			off += n
		}
		b.mirrorShadow(ver, ins, outs, err)
	}()
}

// runBatch performs one device invocation, converting a backend panic into
// an ErrInference-wrapped error so a faulty device call fails the batch's
// requests instead of killing the server.
func (b *Batcher) runBatch(be npu.Backend, ins [][]float64) (outs [][]float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: device %s panicked on a batch of %d: %v",
				ErrInference, be.Name(), len(ins), p)
		}
	}()
	return be.Infer(ins), nil
}

// mirrorShadow re-runs a successfully served batch against the source's
// shadow backend, if one is set, and reports both answers to OnShadow. It
// runs after delivery inside the dispatch goroutine: shadow scoring costs
// device-slot time but never client latency or results. A panicking shadow
// backend is swallowed — a broken candidate must not disturb serving.
func (b *Batcher) mirrorShadow(activeVer int, ins, active [][]float64, batchErr error) {
	if b.cfg.OnShadow == nil || batchErr != nil {
		return
	}
	sh, shVer, ok := b.src.Shadow()
	if !ok {
		return
	}
	outs, err := b.runBatch(sh, ins)
	if err != nil || len(outs) != len(ins) {
		return
	}
	b.cfg.OnShadow(ShadowBatch{
		ActiveVersion: activeVer,
		ShadowVersion: shVer,
		Inputs:        ins,
		Active:        active,
		Shadow:        outs,
	})
}

// Close stops accepting submissions, serves everything already queued and
// waits for in-flight batches to finish.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.quit)
	b.collector.Wait()
	b.inflight.Wait()
}

// QueueDepth returns the number of requests waiting for a batch — the
// signal behind Retry-After hints and the cluster router's load shedding.
func (b *Batcher) QueueDepth() int { return len(b.reqs) }

// QueueCap returns the request queue capacity.
func (b *Batcher) QueueCap() int { return b.cfg.QueueCap }
