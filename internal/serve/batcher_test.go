package serve

import (
	"context"
	"errors"
	"fmt"
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

// waitQueued blocks until the batcher has admitted rows rows and holds
// depth requests in its queue. Both are read under the admission lock, so
// every admitted request is already in the queue or the collector's hand.
func waitQueued(t *testing.T, b *Batcher, rows uint64, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		n, d := uint64(b.stats.requests.Value()), len(b.reqs)
		b.mu.Unlock()
		if n == rows && d == depth {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batcher admitted %d rows with %d queued, want %d rows with %d queued", n, d, rows, depth)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitCalls blocks until the backend has been invoked n times.
func waitCalls(t *testing.T, be *countingBackend, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for be.calls.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d device calls, want %d", be.calls.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// submitted is the pending result of one SubmitRows call.
type submitted struct {
	outs [][]float64
	info SubmitInfo
	err  error
}

// submitAsync starts a SubmitRows call and returns its pending result.
func submitAsync(b *Batcher, rows [][]float64) <-chan submitted {
	ch := make(chan submitted, 1)
	go func() {
		outs, info, err := b.SubmitRows(context.Background(), rows)
		ch <- submitted{outs, info, err}
	}()
	return ch
}

// checkPredict fails unless outs are bit-equal to m.Predict of ins.
func checkPredict(t *testing.T, m *nn.MLP, ins, outs [][]float64, what string) {
	t.Helper()
	if len(outs) != len(ins) {
		t.Fatalf("%s: %d outputs for %d inputs", what, len(outs), len(ins))
	}
	for i, in := range ins {
		want := m.Predict(in)
		for o := range want {
			if outs[i][o] != want[o] {
				t.Fatalf("%s row %d output %d: %g, want %g", what, i, o, outs[i][o], want[o])
			}
		}
	}
}

// TestBatcherCoalesces is the acceptance test for the NPU-style frontend.
// A blocker request holds the only device slot while 15 more queue behind
// it; on release they ride in one batch, so 16 requests cost exactly 2
// device calls and every response matches the single-request Predict
// output. A second round queues requests of 1, 8 and MaxBatch+3 rows
// behind a blocker: each rides whole in one shared batch, and appending to
// one request's outputs leaves its batch-mate's rows intact.
func TestBatcherCoalesces(t *testing.T) {
	m := testModel(t)
	const maxBatch = 16
	newStalled := func() (*countingBackend, *Batcher) {
		backend := &countingBackend{Backend: npu.New(m), release: make(chan struct{})}
		b := NewBatcher(backend, m.InputDim(), BatcherConfig{
			MaxBatch:    maxBatch,
			QueueCap:    64,
			MaxInflight: 1,
		})
		t.Cleanup(b.Close)
		return backend, b
	}

	t.Run("single rows", func(t *testing.T) {
		backend, b := newStalled()
		const clients = 16
		inputs := testInputs(clients, 2)
		pending := []<-chan submitted{submitAsync(b, inputs[:1])}
		waitCalls(t, backend, 1)
		for i := 1; i < clients; i++ {
			pending = append(pending, submitAsync(b, inputs[i:i+1]))
		}
		// The collector holds one queued request while it waits for the slot.
		waitQueued(t, b, clients, clients-2)
		close(backend.release)

		for i, p := range pending {
			r := <-p
			if r.err != nil {
				t.Fatalf("client %d: %v", i, r.err)
			}
			checkPredict(t, m, inputs[i:i+1], r.outs, fmt.Sprintf("client %d", i))
		}
		if calls := backend.calls.Load(); calls != 2 {
			t.Fatalf("%d device calls for %d requests, want 2", calls, clients)
		}
		requests, batches, largest := b.stats.requests.Value(), b.stats.batchSize.Count(), b.stats.batchSize.Max()
		if requests != clients || batches != 2 || largest != clients-1 {
			t.Errorf("requests = %v, batches = %d, largest = %v, want %d requests over 2 batches, largest %d",
				requests, batches, largest, clients, clients-1)
		}
	})

	t.Run("mixed sizes", func(t *testing.T) {
		backend, b := newStalled()
		blocker := submitAsync(b, testInputs(1, 3))
		waitCalls(t, backend, 1)
		// Admit one request at a time so the batch order is a, mid, big.
		sizes := []int{1, 8, maxBatch + 3}
		inputs := make([][][]float64, len(sizes))
		pending := make([]<-chan submitted, len(sizes))
		rows := uint64(1)
		for k, n := range sizes {
			inputs[k] = testInputs(n, int64(10+k))
			pending[k] = submitAsync(b, inputs[k])
			rows += uint64(n)
			waitQueued(t, b, rows, k)
		}
		close(backend.release)
		if r := <-blocker; r.err != nil {
			t.Fatalf("blocker: %v", r.err)
		}

		const batchRows = 1 + 8 + maxBatch + 3
		results := make([]submitted, len(sizes))
		for k, p := range pending {
			results[k] = <-p
			r := results[k]
			if r.err != nil {
				t.Fatalf("%d-row request: %v", sizes[k], r.err)
			}
			checkPredict(t, m, inputs[k], r.outs, fmt.Sprintf("%d-row request", sizes[k]))
			if r.info.BatchSize != batchRows {
				t.Errorf("%d-row request rode a batch of %d, want %d", sizes[k], r.info.BatchSize, batchRows)
			}
		}
		// The 1-row request sits right before the 8-row one in the batch's
		// output slice; its capped view must not let an append spill over.
		_ = append(results[0].outs, make([]float64, m.OutputDim()))
		checkPredict(t, m, inputs[1], results[1].outs, "8-row request after a neighbour's append")

		if calls := backend.calls.Load(); calls != 2 {
			t.Fatalf("%d device calls, want 2", calls)
		}
		largest, full, partial := b.stats.batchSize.Max(), b.stats.flushFull.Value(), b.stats.flushTimer.Value()
		if largest != batchRows || full != 1 || partial != 1 {
			t.Errorf("largest batch %v, %v full, %v partial, want largest batch %d, 1 full and 1 partial",
				largest, full, partial, batchRows)
		}
	})
}

// TestBatcherIdleDispatch checks a lone request on an idle batcher is
// served at once, as a batch of one, reporting the device's modelled
// latency for it.
func TestBatcherIdleDispatch(t *testing.T) {
	m := testModel(t)
	dev := npu.New(m)
	b := NewBatcher(dev, m.InputDim(), BatcherConfig{
		MaxBatch: 16,
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
	if n := b.stats.flushTimer.Value(); n != 1 {
		t.Errorf("flushTimer = %v, want 1 (a batch below MaxBatch rows)", n)
	}
}

// TestBatcherBackpressure fills the bounded queue against a stalled device
// and expects fail-fast ErrOverloaded, not blocking.
func TestBatcherBackpressure(t *testing.T) {
	m := testModel(t)
	backend := &countingBackend{Backend: npu.New(m), release: make(chan struct{})}
	b := NewBatcher(backend, m.InputDim(), BatcherConfig{
		MaxBatch:    1, // every request is its own batch
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
	if b.stats.rejected.Value() == 0 {
		t.Error("rejected counter reports no rejected requests")
	}
}

// TestBatcherCloseDrains verifies accepted requests are answered across
// shutdown and later submissions are refused.
func TestBatcherCloseDrains(t *testing.T) {
	m := testModel(t)
	b := NewBatcher(npu.New(m), m.InputDim(), BatcherConfig{
		MaxBatch: 8,
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
