// Package serve turns the TOP-IL reproduction into a long-lived service:
// trained IL models answer placement queries over HTTP and full managed
// simulations run as asynchronous jobs on a bounded worker pool.
//
// The package mirrors, on the serving side, the paper's architectural
// argument about the NPU (Fig. 12): concurrent inference requests are
// coalesced into batches by a non-blocking frontend (Batcher), so the
// per-request latency stays nearly constant under fan-in — exactly the
// property the paper attributes to batched NPU inference versus per-request
// CPU inference. The components are:
//
//	Registry   loads and caches named nn.MLP models from an artifacts
//	           directory and exposes them as npu.Backend devices.
//	Batcher    coalesces concurrent requests into NPU-style batches,
//	           dispatching as soon as a device slot is free; requests
//	           that queued while every slot was busy share the batch.
//	Runner     executes full sim+core/governor runs as jobs (queued /
//	           running / done / failed / canceled) on a bounded pool.
//	Server     the HTTP surface: /v1/infer, /v1/sim, /v1/jobs/{id},
//	           /v1/models, /v1/healthz, /metrics — with request-ID
//	           middleware, per-endpoint metrics and 429 backpressure.
//
// Everything is stdlib-only (net/http + encoding/json), matching the rest
// of the repository.
package serve
