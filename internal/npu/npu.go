// Package npu models the neural processing unit of the Kirin 970 SoC and
// its HiAI-DDK-style programming interface.
//
// The paper's key observation is architectural, not numerical: the NPU
// performs batched NN inference with high internal parallelism at a nearly
// batch-size-independent latency, via a non-blocking call from the
// management daemon, whereas CPU inference time grows linearly with the
// number of running applications (one AoI inference each). The latency
// model here reproduces exactly that shape (the paper's Fig. 12), while the
// computed results are bit-identical to the host network — Kirin 970's NPU
// runs FP16, but the paper's 21-input MLP is far from precision-limited.
package npu

import (
	"fmt"
	"time"

	"repro/internal/nn"
	"repro/internal/telemetry"
)

// Lazy telemetry handles: they bind to the process-default registry when a
// binary installs one (telemetry.Install) and cost a few nanoseconds with
// zero allocations otherwise, so the hot inference path carries them
// unconditionally.
var (
	npuInferences = telemetry.LazyCounter{Name: "npu_inferences_total",
		Help: "batched Infer invocations on the modelled NPU"}
	npuRows = telemetry.LazyCounter{Name: "npu_rows_total",
		Help: "rows inferred on the modelled NPU"}
	npuAsyncLatency = telemetry.LazyHistogram{Name: "npu_modeled_latency_seconds",
		Help:    "modelled device latency of async NPU invocations",
		Buckets: telemetry.ExpBuckets(100e-6, 2, 10)}
	cpuInferences = telemetry.LazyCounter{Name: "npu_cpu_inferences_total",
		Help: "batched Infer invocations on the modelled CPU backend"}
	cpuRows = telemetry.LazyCounter{Name: "npu_cpu_rows_total",
		Help: "rows inferred on the modelled CPU backend"}
)

// Backend performs batched NN inference and reports how long the real
// device would take. Implementations: NPU (accelerator), CPUBackend, and
// the serving layer's registry-backed device.
//
// Concurrency: implementations over a fixed model must be safe for
// concurrent Infer/Latency calls — nn.MLP forward passes are read-only, so
// NPU and CPUBackend are; custom backends must preserve this.
type Backend interface {
	Name() string
	// Infer runs one forward pass per row of batch.
	Infer(batch [][]float64) [][]float64
	// Latency returns the modelled wall-clock cost of Infer for the
	// given batch size on the real device.
	Latency(batchSize int) time.Duration
}

// Result is the outcome of a non-blocking inference call.
type Result struct {
	Outputs [][]float64
	Latency time.Duration
}

// NPU models the accelerator: a fixed driver/DMA overhead plus a per-wave
// compute cost, where a wave is a group of Lanes batch elements processed
// in parallel.
type NPU struct {
	model *nn.MLP
	// FixedOverhead is the per-invocation driver, DMA and synchronization
	// cost (dominates for small models like ours).
	FixedOverhead time.Duration
	// WaveCost is the compute time of one wave of Lanes parallel
	// inferences.
	WaveCost time.Duration
	// Lanes is the number of batch elements processed in parallel.
	Lanes int
}

// New creates an NPU executing the given model, with latency parameters
// calibrated to the paper's measurements: the migration policy (one batched
// inference plus bookkeeping) costs ≈4.3 ms per invocation regardless of
// the number of applications. It panics on a nil model.
func New(model *nn.MLP) *NPU {
	if model == nil {
		panic("npu: nil model")
	}
	return &NPU{
		model:         model,
		FixedOverhead: 900 * time.Microsecond,
		WaveCost:      100 * time.Microsecond,
		Lanes:         16,
	}
}

// Name implements Backend.
func (n *NPU) Name() string { return "npu" }

// Infer implements Backend.
func (n *NPU) Infer(batch [][]float64) [][]float64 {
	npuInferences.Inc()
	npuRows.Add(float64(len(batch)))
	return n.model.PredictBatch(batch)
}

// Latency implements Backend.
func (n *NPU) Latency(batchSize int) time.Duration {
	if batchSize <= 0 {
		return 0
	}
	waves := (batchSize + n.Lanes - 1) / n.Lanes
	return n.FixedOverhead + time.Duration(waves)*n.WaveCost
}

// InferAsync issues a non-blocking inference, mirroring the HiAI DDK call
// the paper's daemon uses: the returned channel delivers the outputs and
// the modelled device latency.
func (n *NPU) InferAsync(batch [][]float64) <-chan Result {
	ch := make(chan Result, 1)
	go func() {
		lat := n.Latency(len(batch))
		npuAsyncLatency.Observe(lat.Seconds())
		ch <- Result{Outputs: n.Infer(batch), Latency: lat}
	}()
	return ch
}

// CPUBackend models running the same inference on a CPU core: latency is
// linear in batch size and in the network's multiply-accumulate count.
type CPUBackend struct {
	model *nn.MLP
	// MACRate is the core's sustained multiply-accumulate throughput in
	// MACs per second.
	MACRate float64
	// CallOverhead is the per-invocation bookkeeping cost.
	CallOverhead time.Duration
	macs         int
}

// NewCPU creates a CPU inference backend. The rate models a plain FP32
// scalar implementation on a LITTLE core at a mid VF level (no NEON, cold
// caches between the 500 ms invocations). It panics on a nil model.
func NewCPU(model *nn.MLP) *CPUBackend {
	if model == nil {
		panic("npu: nil model")
	}
	macs := 0
	sizes := model.Sizes()
	for l := 0; l+1 < len(sizes); l++ {
		macs += sizes[l] * sizes[l+1]
	}
	return &CPUBackend{
		model:        model,
		MACRate:      1e8,
		CallOverhead: 50 * time.Microsecond,
		macs:         macs,
	}
}

// Name implements Backend.
func (c *CPUBackend) Name() string { return "cpu" }

// Infer implements Backend.
func (c *CPUBackend) Infer(batch [][]float64) [][]float64 {
	cpuInferences.Inc()
	cpuRows.Add(float64(len(batch)))
	return c.model.PredictBatch(batch)
}

// Latency implements Backend.
func (c *CPUBackend) Latency(batchSize int) time.Duration {
	if batchSize <= 0 {
		return 0
	}
	per := float64(c.macs) / c.MACRate // seconds per inference
	return c.CallOverhead + time.Duration(per*float64(batchSize)*float64(time.Second))
}

// BackendNames lists the inference backends ByName builds: the modelled
// NPU (the paper's accelerator), the CPU fallback (the paper's
// no-accelerator ablation), and the fp16-quantized model on the NPU.
func BackendNames() []string { return []string{"npu", "cpu", "fp16"} }

// ByName builds the named backend (see BackendNames) over model; ok is
// false for an unknown name. "fp16" quantizes a copy, so model stays
// untouched and safe to share between concurrent callers.
func ByName(name string, model *nn.MLP) (b Backend, ok bool) {
	switch name {
	case "npu":
		return New(model), true
	case "cpu":
		return NewCPU(model), true
	case "fp16":
		return New(QuantizeFP16(model)), true
	}
	return nil, false
}

// Validate checks that a backend produces outputs identical to the host
// model for the given probe inputs — the acceptance test the paper's
// deployment would run against the HiAI-converted model.
func Validate(b Backend, model *nn.MLP, probes [][]float64) error {
	got := b.Infer(probes)
	for i, x := range probes {
		want := model.Predict(x)
		if len(got[i]) != len(want) {
			return fmt.Errorf("npu: probe %d: output dim %d, want %d", i, len(got[i]), len(want))
		}
		for o := range want {
			d := got[i][o] - want[o]
			if d > 1e-9 || d < -1e-9 {
				return fmt.Errorf("npu: probe %d output %d: %g, want %g", i, o, got[i][o], want[o])
			}
		}
	}
	return nil
}
