package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nn"
)

// TestClusterInferUnaffectedByHotSwap proves the router is oblivious to
// model hot swaps: routed inference keeps answering 200 with well-formed
// rows while every replica publishes and atomically swaps a new model
// version mid-traffic, three rounds in a row. No request is dropped, no
// error status leaks, and each round demonstrably serves traffic after
// the swap.
func TestClusterInferUnaffectedByHotSwap(t *testing.T) {
	set, _, ts := startCluster(t, 3)

	var served atomic.Int64
	stop := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(map[string]interface{}{
				"model": "model-1", "inputs": [][]float64{make([]float64, 21)},
			})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var out struct {
					Outputs [][]float64 `json:"outputs"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("infer returned %d mid-swap", resp.StatusCode)
					return
				}
				if decErr != nil || len(out.Outputs) != 1 || len(out.Outputs[0]) != 8 {
					errc <- fmt.Errorf("malformed infer response mid-swap: %v %v", decErr, out.Outputs)
					return
				}
				served.Add(1)
			}
		}()
	}

	// waitTraffic blocks until at least n more requests complete, proving
	// the cluster is actively serving at this point in the swap sequence.
	waitTraffic := func(n int64) {
		t.Helper()
		floor := served.Load() + n
		deadline := time.Now().Add(30 * time.Second)
		for served.Load() < floor {
			select {
			case err := <-errc:
				t.Fatalf("infer load failed: %v", err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("no infer traffic (served %d, want >= %d)", served.Load(), floor)
			}
			time.Sleep(time.Millisecond)
		}
	}

	waitTraffic(8)
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			reg := set.Replica(i).srv.Registry()
			m := nn.NewMLP([]int{21, 32, 8}, int64(100*round+i))
			v, err := reg.Publish("model-1", m)
			if err != nil {
				t.Fatalf("replica %d round %d publish: %v", i, round, err)
			}
			if _, err := reg.Swap("model-1", v); err != nil {
				t.Fatalf("replica %d round %d swap: %v", i, round, err)
			}
		}
		waitTraffic(8)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("infer load failed: %v", err)
	default:
	}

	// Every replica ends on its third swapped-in version (1 on boot, then
	// publishes 2..4), so the traffic above really did cross three swaps.
	for i := 0; i < 3; i++ {
		reg := set.Replica(i).srv.Registry()
		if v, err := reg.ActiveVersion("model-1"); err != nil || v != 4 {
			t.Fatalf("replica %d active version = %d (%v), want 4", i, v, err)
		}
	}
	t.Logf("served %d routed inferences across 3 swap rounds", served.Load())
}
