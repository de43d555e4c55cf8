package serve

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/npu"
)

// countingBackend wraps a Backend and counts device invocations.
type countingBackend struct {
	npu.Backend
	calls   atomic.Int64
	release chan struct{} // when non-nil, Infer blocks until closed
}

func (c *countingBackend) Infer(batch [][]float64) [][]float64 {
	c.calls.Add(1)
	if c.release != nil {
		<-c.release
	}
	return c.Backend.Infer(batch)
}

func testModel(t *testing.T) *nn.MLP {
	t.Helper()
	return nn.NewMLP([]int{21, 32, 8}, 1)
}

func testInputs(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, 21)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// TestBatcherCoalesces is the acceptance test for the NPU-style frontend:
// with 16 concurrent in-flight requests the device is invoked strictly
// fewer times than there are requests, while every response matches the
// single-request Predict output.
func TestBatcherCoalesces(t *testing.T) {
	m := testModel(t)
	backend := &countingBackend{Backend: npu.New(m)}
	b := NewBatcher(backend, m.InputDim(), BatcherConfig{
		MaxBatch: 16,
		MaxWait:  50 * time.Millisecond,
		QueueCap: 64,
	})
	defer b.Close()

	const clients = 16
	inputs := testInputs(clients, 2)
	outputs := make([][]float64, clients)
	infos := make([]SubmitInfo, clients)
	errs := make([]error, clients)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			outputs[i], infos[i], errs[i] = b.Submit(context.Background(), inputs[i])
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		want := m.Predict(inputs[i])
		for o := range want {
			if outputs[i][o] != want[o] {
				t.Fatalf("client %d output %d: %g, want %g", i, o, outputs[i][o], want[o])
			}
		}
	}
	calls := backend.calls.Load()
	if calls >= clients {
		t.Fatalf("no coalescing: %d device calls for %d requests", calls, clients)
	}
	st := b.Stats()
	if st.Requests != clients || st.Batches != uint64(calls) {
		t.Errorf("stats = %+v, want %d requests over %d batches", st, clients, calls)
	}
	if st.LargestBatch < 2 {
		t.Errorf("largest batch %d, want >= 2", st.LargestBatch)
	}
	t.Logf("%d requests served by %d device calls (largest batch %d, mean %.1f)",
		clients, calls, st.LargestBatch, st.MeanBatch)
}

// TestBatcherFlushesOnTimer checks a lone request is not held past MaxWait
// and reports the device's modelled latency for its batch.
func TestBatcherFlushesOnTimer(t *testing.T) {
	m := testModel(t)
	dev := npu.New(m)
	b := NewBatcher(dev, m.InputDim(), BatcherConfig{
		MaxBatch: 16,
		MaxWait:  time.Millisecond,
		QueueCap: 4,
	})
	defer b.Close()
	out, info, err := b.Submit(context.Background(), testInputs(1, 3)[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != m.OutputDim() {
		t.Fatalf("output dim %d, want %d", len(out), m.OutputDim())
	}
	if info.BatchSize != 1 {
		t.Errorf("batch size %d, want 1", info.BatchSize)
	}
	if info.DeviceLatency != dev.Latency(1) {
		t.Errorf("reported device latency %v, want the modelled %v", info.DeviceLatency, dev.Latency(1))
	}
	if st := b.Stats(); st.FlushTimer != 1 {
		t.Errorf("flushTimer = %d, want 1", st.FlushTimer)
	}
}

// TestBatcherBackpressure fills the bounded queue against a stalled device
// and expects fail-fast ErrOverloaded, not blocking.
func TestBatcherBackpressure(t *testing.T) {
	m := testModel(t)
	backend := &countingBackend{Backend: npu.New(m), release: make(chan struct{})}
	b := NewBatcher(backend, m.InputDim(), BatcherConfig{
		MaxBatch:    1, // every request is its own batch
		MaxWait:     time.Millisecond,
		QueueCap:    2,
		MaxInflight: 1, // one stalled batch blocks the collector
	})
	in := testInputs(1, 4)[0]

	// Saturate: the collector takes requests out of the queue one at a
	// time and blocks in Infer, so keep submitting until the queue holds
	// QueueCap pending entries and the next submit is rejected.
	var rejected bool
	var wg sync.WaitGroup
	for i := 0; i < 32 && !rejected; i++ {
		_, _, err := func() ([]float64, SubmitInfo, error) {
			type res struct {
				out  []float64
				info SubmitInfo
				err  error
			}
			ch := make(chan res, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				o, inf, e := b.Submit(context.Background(), in)
				ch <- res{o, inf, e}
			}()
			select {
			case r := <-ch:
				return r.out, r.info, r.err
			case <-time.After(10 * time.Millisecond):
				return nil, SubmitInfo{}, nil // accepted, still waiting
			}
		}()
		if errors.Is(err, ErrOverloaded) {
			rejected = true
		}
	}
	if !rejected {
		t.Error("queue never rejected submissions under a stalled device")
	}
	close(backend.release)
	b.Close()
	wg.Wait()
	if st := b.Stats(); st.Rejected == 0 {
		t.Errorf("stats report no rejected requests: %+v", st)
	}
}

// TestBatcherCloseDrains verifies accepted requests are answered across
// shutdown and later submissions are refused.
func TestBatcherCloseDrains(t *testing.T) {
	m := testModel(t)
	b := NewBatcher(npu.New(m), m.InputDim(), BatcherConfig{
		MaxBatch: 8,
		MaxWait:  50 * time.Millisecond,
		QueueCap: 16,
	})
	inputs := testInputs(8, 5)
	var wg sync.WaitGroup
	errs := make([]error, len(inputs))
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = b.Submit(context.Background(), inputs[i])
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let submissions enqueue
	b.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if _, _, err := b.Submit(context.Background(), inputs[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestBatcherRejectsWrongDim guards the dispatch goroutine from panics.
func TestBatcherRejectsWrongDim(t *testing.T) {
	m := testModel(t)
	b := NewBatcher(npu.New(m), m.InputDim(), BatcherConfig{})
	defer b.Close()
	if _, _, err := b.Submit(context.Background(), []float64{1, 2, 3}); err == nil {
		t.Fatal("wrong-dimension input accepted")
	}
}

// TestBatchingLatencyProfile measures per-request wall latency at 1 and 16
// concurrent clients — the serving-side analogue of the paper's Fig. 12.
// Coalescing should keep the fan-in p95 within a small multiple of the
// single-client p95 (and far below 16×).
func TestBatchingLatencyProfile(t *testing.T) {
	m := testModel(t)
	measure := func(clients, rounds int) (p50, p95 time.Duration) {
		b := NewBatcher(npu.New(m), m.InputDim(), BatcherConfig{
			MaxBatch: 16,
			MaxWait:  2 * time.Millisecond,
			QueueCap: 256,
		})
		defer b.Close()
		var mu sync.Mutex
		var lats []time.Duration
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				in := testInputs(1, int64(c))[0]
				<-start
				for r := 0; r < rounds; r++ {
					t0 := time.Now()
					if _, _, err := b.Submit(context.Background(), in); err != nil {
						return
					}
					d := time.Since(t0)
					mu.Lock()
					lats = append(lats, d)
					mu.Unlock()
				}
			}(c)
		}
		close(start)
		wg.Wait()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		if len(lats) == 0 {
			t.Fatal("no latencies measured")
		}
		return lats[len(lats)/2], lats[len(lats)*95/100]
	}

	p50one, p95one := measure(1, 50)
	p50fan, p95fan := measure(16, 50)
	t.Logf("1 client:   p50 %v  p95 %v", p50one, p95one)
	t.Logf("16 clients: p50 %v  p95 %v", p50fan, p95fan)
	if p95fan > 16*p95one+20*time.Millisecond {
		t.Errorf("fan-in p95 %v vs single-client p95 %v: no batching benefit", p95fan, p95one)
	}
}
