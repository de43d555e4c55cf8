package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/npu"
)

// stampBackend answers every row with its version stamp — any mixed-version
// batch would deliver a row whose stamp disagrees with SubmitInfo.
type stampBackend struct{ version int }

func (s *stampBackend) Name() string { return "test/stamp" }

func (s *stampBackend) Infer(batch [][]float64) [][]float64 {
	out := make([][]float64, len(batch))
	for i := range batch {
		out[i] = []float64{float64(s.version)}
	}
	return out
}

func (s *stampBackend) Latency(int) time.Duration { return 0 }

// swapSource is a BackendSource whose active (and optional shadow) backend
// can be swapped atomically, like the registry's ModelSource.
type swapSource struct {
	active atomic.Pointer[stampBackend]
	shadow atomic.Pointer[stampBackend]
}

func (s *swapSource) Acquire() (npu.Backend, int) {
	a := s.active.Load()
	return a, a.version
}

func (s *swapSource) Shadow() (npu.Backend, int, bool) {
	sh := s.shadow.Load()
	if sh == nil {
		return nil, 0, false
	}
	return sh, sh.version, true
}

// TestBatcherNoMixedBatchesAcrossSwaps hammers concurrent inference across
// several hot swaps under -race: every delivered row must carry the stamp
// of the version SubmitInfo reports — no batch is ever split between
// versions, no request is dropped.
func TestBatcherNoMixedBatchesAcrossSwaps(t *testing.T) {
	src := &swapSource{}
	src.active.Store(&stampBackend{version: 1})
	b := NewBatcherSource(src, 0, BatcherConfig{
		MaxBatch: 8, QueueCap: 4096, MaxInflight: 4,
	})
	defer b.Close()

	const clients = 16
	const perClient = 300
	const total = clients * perClient
	var served [total]int32 // version that served each request
	var done atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < perClient; i++ {
				out, info, err := b.Submit(context.Background(), []float64{1})
				if err != nil {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
				if info.ModelVersion < 1 || info.ModelVersion > 4 {
					t.Errorf("served by version %d, want 1..4", info.ModelVersion)
					return
				}
				if int(out[0]) != info.ModelVersion {
					t.Errorf("row stamped v%d but SubmitInfo says v%d — mixed batch",
						int(out[0]), info.ModelVersion)
					return
				}
				served[c*perClient+i] = int32(info.ModelVersion)
				done.Add(1)
			}
		}(c)
	}

	// Three hot swaps interleaved with the hammer: each waits until a
	// quarter of the load has been served, so every version serves traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for v := 2; v <= 4; v++ {
			for done.Load() < int64(total*(v-1)/4) {
				time.Sleep(50 * time.Microsecond)
			}
			src.active.Store(&stampBackend{version: v})
		}
	}()
	close(start)
	wg.Wait()

	versions := map[int32]int{}
	for _, v := range served {
		versions[v]++
	}
	if versions[0] > 0 {
		t.Fatalf("%d requests unserved", versions[0])
	}
	if len(versions) < 2 {
		t.Fatalf("only versions %v observed; swaps did not interleave with the load", versions)
	}
}

// TestBatcherShadowMirroring checks the mirror path: the shadow backend
// scores the same inputs, its predictions reach OnShadow, and what clients
// receive is always the active version's answer.
func TestBatcherShadowMirroring(t *testing.T) {
	src := &swapSource{}
	src.active.Store(&stampBackend{version: 3})
	src.shadow.Store(&stampBackend{version: 7})

	var mu sync.Mutex
	var got []ShadowBatch
	b := NewBatcherSource(src, 0, BatcherConfig{
		MaxBatch: 4, QueueCap: 64, MaxInflight: 2,
		OnShadow: func(sb ShadowBatch) {
			mu.Lock()
			got = append(got, sb)
			mu.Unlock()
		},
	})

	for i := 0; i < 20; i++ {
		out, info, err := b.Submit(context.Background(), []float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if int(out[0]) != 3 || info.ModelVersion != 3 {
			t.Fatalf("client got stamp %v from v%d — shadow predictions served", out, info.ModelVersion)
		}
	}
	b.Close() // waits for in-flight dispatches, so every mirror has fired

	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("no shadow batches observed")
	}
	rows := 0
	for _, sb := range got {
		if sb.ActiveVersion != 3 || sb.ShadowVersion != 7 {
			t.Fatalf("shadow batch versions %d/%d, want 3/7", sb.ActiveVersion, sb.ShadowVersion)
		}
		if len(sb.Inputs) != len(sb.Active) || len(sb.Inputs) != len(sb.Shadow) {
			t.Fatalf("ragged shadow batch: %d inputs, %d active, %d shadow",
				len(sb.Inputs), len(sb.Active), len(sb.Shadow))
		}
		for i := range sb.Inputs {
			if int(sb.Active[i][0]) != 3 || int(sb.Shadow[i][0]) != 7 {
				t.Fatal("shadow batch rows carry wrong stamps")
			}
		}
		rows += len(sb.Inputs)
	}
	if rows != 20 {
		t.Fatalf("shadow scored %d rows, want all 20", rows)
	}
}

// TestBatcherShadowPanicIsolated: a broken candidate must not disturb
// serving — the active answers still flow, OnShadow simply never fires.
func TestBatcherShadowPanicIsolated(t *testing.T) {
	src := &swapSource{}
	src.active.Store(&stampBackend{version: 1})
	src.shadow.Store(&stampBackend{version: -1}) // see panicShadow below
	b := NewBatcherSource(&panicShadow{swapSource: src}, 0, BatcherConfig{
		MaxBatch: 4, QueueCap: 64, MaxInflight: 2,
		OnShadow: func(ShadowBatch) { t.Error("OnShadow fired for a panicking shadow") },
	})
	defer b.Close()
	for i := 0; i < 8; i++ {
		out, _, err := b.Submit(context.Background(), []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if int(out[0]) != 1 {
			t.Fatalf("active answer corrupted: %v", out)
		}
	}
}

// panicShadow serves the active backend normally but hands out a shadow
// that panics on Infer.
type panicShadow struct{ *swapSource }

func (p *panicShadow) Shadow() (npu.Backend, int, bool) { return panicBackend{}, 99, true }

type panicBackend struct{}

func (panicBackend) Name() string                  { return "test/panic" }
func (panicBackend) Infer([][]float64) [][]float64 { panic("candidate broken") }
func (panicBackend) Latency(int) time.Duration     { return 0 }
