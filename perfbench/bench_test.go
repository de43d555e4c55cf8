package main

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := schedule(7, 300, time.Second, inputDim)
	b := schedule(7, 300, time.Second, inputDim)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 300, time.Second, inputDim)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 200 || n > 400 {
		t.Fatalf("%d arrivals in 1 s at 300/s", n)
	}
	multi := 0
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		if x.due >= time.Second {
			t.Fatalf("arrival %d due at %v, past the phase", i, x.due)
		}
		if len(x.rows) != 1 && len(x.rows) != eightRows {
			t.Fatalf("arrival %d has %d rows", i, len(x.rows))
		}
		if len(x.rows) == eightRows {
			multi++
		}
		for _, r := range x.rows {
			if len(r) != inputDim {
				t.Fatalf("row of %d features, want %d", len(r), inputDim)
			}
		}
	}
	if frac := float64(multi) / float64(len(a)); frac < 0.3 || frac > 0.7 {
		t.Fatalf("%.2f of requests are multi-row, want about half", frac)
	}
}

func TestPercentileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		s := make(samples, n)
		for i := range s {
			s[i] = rng.ExpFloat64() * 10
		}
		sorted := s.sorted()
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.01 {
			v := s.quantile(q)
			if v < prev {
				t.Fatalf("quantile not monotone: q=%.2f gives %g after %g", q, v, prev)
			}
			if v > s.max() || v < 0 {
				t.Fatalf("quantile %g outside [0, max %g]", v, s.max())
			}
			if i := sort.SearchFloat64s(sorted, v); i == len(sorted) || sorted[i] != v {
				t.Fatalf("quantile %g is not an observation", v)
			}
			prev = v
		}
		if s.quantile(1) != s.max() || s.quantile(0) != sorted[0] {
			t.Fatal("quantile(0) and quantile(1) must be the minimum and maximum")
		}
	}
	if (samples{}).quantile(0.99) != 0 {
		t.Fatal("empty set must give 0")
	}
	if got := (samples{1, 2, 3, 4}).median(); got != 2 {
		t.Fatalf("nearest-rank median of 1..4 = %g, want 2", got)
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add("g", "root.op", -1, at(0), at(100))
	a := r.add("g", "a.op", root, at(10), at(40))
	r.add("g", "b.op", root, at(30), at(60)) // overlaps a: the union counts once
	r.fold("g", "c.tick", a, 5*time.Millisecond)
	p := r.profile()
	want := map[string]time.Duration{
		"root.op": 50 * time.Millisecond,
		"a.op":    25 * time.Millisecond,
		"b.op":    30 * time.Millisecond,
		"c.tick":  5 * time.Millisecond,
	}
	for name, d := range want {
		if p.self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, p.self[name], d)
		}
	}
	if p.rootWall != 100*time.Millisecond || p.covered != 50*time.Millisecond {
		t.Errorf("root wall %v covered %v, want 100ms and 50ms", p.rootWall, p.covered)
	}
	var nilRec *recorder
	if i := nilRec.begin("g", "x", -1); i != -1 {
		t.Fatal("nil recorder must not record")
	}
	if err := r.writeChrome(filepath.Join(t.TempDir(), "t.json")); err != nil {
		t.Fatal(err)
	}
}

func TestSpecAndBenchmarkFile(t *testing.T) {
	if errs := checkSpec(); len(errs) > 0 {
		t.Fatal(errs)
	}
	if errs := checkFiles(filepath.Join("..", "BENCHMARK.json"), "host.json"); len(errs) > 0 {
		t.Fatal(errs)
	}
}

// TestWorkloadSmoke runs every workload briefly, untraced and traced, and
// requires every output check to pass, every end-to-end metric to be
// reported untraced and the traced run to report its overhead.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				b, err := newBench(w.name)
				if err != nil {
					t.Fatal(err)
				}
				var o outcome
				metrics, err := run(b, w.name, 3, 1, traced, t.TempDir(), &o)
				b.close()
				if err != nil {
					t.Fatal(err)
				}
				if o.failed > 0 || o.attempted == 0 {
					t.Fatalf("%d of %d checks failed: %v", o.failed, o.attempted, o.problems)
				}
				want := []string{"op_p50_ms.untraced", "op_p50_ms.traced", "trace.overhead_frac", "trace.accounted_frac"}
				if !traced {
					want = nil
					for _, s := range endToEnd {
						want = append(want, s.name)
					}
				}
				for _, name := range want {
					if v, ok := metrics[name]; !ok || (name != "trace.overhead_frac" && v <= 0) {
						t.Errorf("metric %s not reported (%v)", name, v)
					}
				}
			})
		}
	}
}
