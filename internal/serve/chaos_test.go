package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/npu"
	"repro/internal/testkit"
)

// faultLog records which input rows a backend answered with a nil output
// row, keyed by the row's backing array.
type faultLog struct {
	npu.Backend
	mu      sync.Mutex
	nilRows map[*float64]bool
}

func (f *faultLog) Infer(batch [][]float64) [][]float64 {
	outs := f.Backend.Infer(batch)
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, o := range outs {
		if o == nil {
			f.nilRows[&batch[i][0]] = true
		}
	}
	return outs
}

// TestBatcherRowFaultIsolation drives the batcher over a chaos backend
// injecting per-row inference failures into requests of 1 to 3 rows, all
// queued behind a blocker so that they share batches. A request with a
// faulted row fails with ErrInference; every other request in the same
// batch still receives its exact result — one bad row must not poison its
// batch.
func TestBatcherRowFaultIsolation(t *testing.T) {
	seed := testkit.SeedFromEnv(42)
	t.Logf("chaos seed %d (export %s to replay)", seed, testkit.SeedEnv)
	m := testModel(t)
	ch := testkit.NewChaos(seed)
	stall := &countingBackend{Backend: npu.New(m), release: make(chan struct{})}
	faults := &faultLog{
		Backend: ch.WrapBackend(stall, testkit.BackendFaults{RowErrProb: 0.5}),
		nilRows: map[*float64]bool{},
	}
	b := NewBatcher(faults, m.InputDim(), BatcherConfig{
		MaxBatch: 8, QueueCap: 64, MaxInflight: 1,
	})
	defer b.Close()

	const n = 32
	inputs := make([][][]float64, n)
	rows := 0
	for i := range inputs {
		inputs[i] = testInputs(1+i%3, int64(7+i))
		rows += len(inputs[i])
	}
	pending := []<-chan submitted{submitAsync(b, inputs[0])}
	waitCalls(t, stall, 1)
	for i := 1; i < n; i++ {
		pending = append(pending, submitAsync(b, inputs[i]))
	}
	waitQueued(t, b, uint64(rows), n-2)
	close(stall.release)

	// Every request's answer follows its batch's device call, so once all
	// have arrived the fault log is complete.
	results := make([]submitted, n)
	for i, p := range pending {
		results[i] = <-p
	}
	failed, failedRows := 0, 0
	for i, r := range results {
		faulted := false
		for _, row := range inputs[i] {
			faulted = faulted || faults.nilRows[&row[0]]
		}
		switch {
		case r.err == nil && !faulted:
			checkPredict(t, m, inputs[i], r.outs, fmt.Sprintf("surviving request %d", i))
		case errors.Is(r.err, ErrInference) && faulted:
			failed++
			failedRows += len(inputs[i])
		default:
			t.Fatalf("request %d (faulted row: %v): error %v", i, faulted, r.err)
		}
	}
	if injected := ch.EventCount("infer-error"); len(faults.nilRows) != injected {
		t.Errorf("%d rows came back nil, %d faults injected", len(faults.nilRows), injected)
	}
	if failed == 0 || failed == n {
		t.Errorf("%d/%d failures: expected a mix at p=0.5 (seed %d)", failed, n, seed)
	}
	if errs, panics := b.stats.inferErrors.Value(), b.stats.batchPanics.Value(); errs != float64(failedRows) || panics != 0 {
		t.Errorf("inferErrors = %v, panics = %v, want %d inferErrors (rows of failed requests), 0 panics",
			errs, panics, failedRows)
	}
}

// TestBatcherPanicRecovery injects whole-batch device panics: every
// affected request fails with ErrInference instead of crashing the server,
// and the batcher keeps serving and closes cleanly.
func TestBatcherPanicRecovery(t *testing.T) {
	m := testModel(t)
	ch := testkit.NewChaos(testkit.SeedFromEnv(1))
	backend := ch.WrapBackend(npu.New(m), testkit.BackendFaults{PanicProb: 1})
	b := NewBatcher(backend, m.InputDim(), BatcherConfig{
		MaxBatch: 4, QueueCap: 64,
	})

	const n = 12
	inputs := testInputs(n, 3)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = b.Submit(context.Background(), inputs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrInference) {
			t.Fatalf("request %d: error %v, want ErrInference after device panic", i, err)
		}
	}
	if got := ch.EventCount("panic"); got == 0 {
		t.Fatal("no panics injected")
	}
	if errs, panics := b.stats.inferErrors.Value(), b.stats.batchPanics.Value(); panics == 0 || errs != n {
		t.Errorf("inferErrors = %v, panics = %v, want >0 panics and %d inferErrors", errs, panics, n)
	}
	b.Close() // must not deadlock or re-panic
}

// TestBatcherContextCancelMidBatch cancels one request while its batch is
// in flight on the device: the canceled request returns promptly with the
// context error, its batch-mates still get their results, and the batcher
// drains cleanly.
func TestBatcherContextCancelMidBatch(t *testing.T) {
	m := testModel(t)
	backend := &countingBackend{Backend: npu.New(m), release: make(chan struct{})}
	b := NewBatcher(backend, m.InputDim(), BatcherConfig{
		MaxBatch: 2, QueueCap: 8,
	})
	defer b.Close()

	inputs := testInputs(2, 5)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var cancelErr, survivorErr error
	var survivorOut []float64

	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, cancelErr = b.Submit(ctx, inputs[0])
	}()
	go func() {
		defer wg.Done()
		survivorOut, _, survivorErr = b.Submit(context.Background(), inputs[1])
	}()

	// Wait until the batch is actually on the (blocked) device, cancel one
	// request mid-batch, then release the device.
	for backend.calls.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	// The canceled Submit must return even though the device is stuck.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	close(backend.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("submits did not return after cancel + release")
	}

	if !errors.Is(cancelErr, context.Canceled) {
		t.Errorf("canceled request returned %v, want context.Canceled", cancelErr)
	}
	if survivorErr != nil {
		t.Fatalf("batch-mate failed: %v", survivorErr)
	}
	want := m.Predict(inputs[1])
	for o := range want {
		if survivorOut[o] != want[o] {
			t.Fatalf("batch-mate output %d = %g, want %g", o, survivorOut[o], want[o])
		}
	}
}

// TestStatusForMapping pins the HTTP status contract for every service
// error class.
func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrOverloaded, http.StatusTooManyRequests},
		{ErrClosed, http.StatusServiceUnavailable},
		{ErrNotFound, http.StatusNotFound},
		{ErrInference, http.StatusBadGateway},
		{context.Canceled, 499},
		{context.DeadlineExceeded, 499},
		{errors.New("serve: some validation problem"), http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestServerZeroModels covers the empty-deployment startup path: a server
// over an absent artifacts directory is healthy, lists zero models,
// answers inference with 404 (not a panic or 500), drains cleanly, and
// refuses work with 503 after shutdown.
func TestServerZeroModels(t *testing.T) {
	s := NewServer(Config{
		ModelsDir: t.TempDir() + "/does-not-exist",
		Workers:   1,
		QueueCap:  2,
	})
	h := s.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}

	if rec := do("GET", "/v1/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if rec := do("GET", "/v1/models", ""); rec.Code != http.StatusOK {
		t.Fatalf("models over missing dir: %d %s", rec.Code, rec.Body.String())
	}
	rec := do("POST", "/v1/infer", `{"model":"ghost","inputs":[[1,2,3]]}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("infer against missing model: %d %s, want 404", rec.Code, rec.Body.String())
	}
	rec = do("POST", "/v1/sim", `{"policy":"TOP-IL","model":"ghost","duration":1}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("sim against missing model: %d %s, want 404", rec.Code, rec.Body.String())
	}

	done := make(chan struct{})
	go func() {
		s.Shutdown(context.Background())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("zero-model shutdown did not drain")
	}
	if rec := do("POST", "/v1/infer", `{"model":"ghost","inputs":[[1]]}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("infer after shutdown: %d, want 503", rec.Code)
	}
}

// TestServerSimBackpressure floods the one-worker job pool until the
// bounded queue rejects with 429, the end-to-end backpressure contract.
func TestServerSimBackpressure(t *testing.T) {
	s := NewServer(Config{ModelsDir: t.TempDir(), Workers: 1, QueueCap: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	body := `{"policy":"GTS/ondemand","duration":30,"seed":1,"numJobs":6,"rate":2,"instrScale":0.05}`
	accepted, rejected := 0, 0
	for i := 0; i < 12; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sim", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("sim submit %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if accepted == 0 {
		t.Error("no job accepted")
	}
	if rejected == 0 {
		t.Error("queue never rejected: backpressure path untested")
	}
}
