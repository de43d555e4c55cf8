package features

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// randomSnapshot builds a snapshot exercising the branches the batched path
// must reproduce: fmin ties (duplicated IPS/QoS pairs), empty clusters,
// target<=0 and no-throughput (q<=0) apps, and unreachable targets.
func randomSnapshot(rng *rand.Rand) Snapshot {
	numClusters := 1 + rng.Intn(3)
	coresPer := 2 + rng.Intn(3)
	s := Snapshot{NumCores: numClusters * coresPer}
	for ci := 0; ci < numClusters; ci++ {
		nf := 2 + rng.Intn(5)
		freqs := make([]float64, nf)
		f := 0.3e9 + rng.Float64()*0.5e9
		for i := range freqs {
			freqs[i] = f
			f += 0.1e9 + rng.Float64()*0.5e9
		}
		s.Clusters = append(s.Clusters, ClusterState{
			Freqs: freqs,
			Freq:  freqs[rng.Intn(nf)],
		})
	}
	n := rng.Intn(13)
	for i := 0; i < n; i++ {
		ci := rng.Intn(numClusters)
		a := AppState{
			ID:      sim.AppID(i),
			Core:    ci*coresPer + rng.Intn(coresPer),
			Cluster: ci,
			IPS:     rng.Float64() * 2e9,
			L2DPS:   rng.Float64() * 5e7,
			QoS:     rng.Float64() * 2e9,
		}
		switch rng.Intn(6) {
		case 0:
			a.QoS = 0 // target<=0: Eq. (1) returns the lowest level
		case 1:
			a.IPS = 0 // no throughput info: conservative max, ok=false
		case 2:
			a.QoS = 100e9 // unreachable: highest level, ok=false
		case 3:
			if len(s.Apps) > 0 {
				// Duplicate an earlier app's operating point (possibly
				// cross-cluster) to force fmin ties at the cluster max.
				p := s.Apps[rng.Intn(len(s.Apps))]
				a.IPS, a.QoS = p.IPS, p.QoS
			}
		}
		s.Apps = append(s.Apps, a)
	}
	return s
}

// TestBatchMatchesVectorInto pins the batched feature path's contract: for
// every app of every snapshot, Batch.VectorInto produces bit-for-bit the
// row that the O(n²) per-AoI reference refVectorInto produces.
func TestBatchMatchesVectorInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var b Batch // reused across snapshots to exercise Reset's resizing
	for trial := 0; trial < 500; trial++ {
		s := randomSnapshot(rng)
		b.Reset(s)
		if b.Len() != len(s.Apps) {
			t.Fatalf("trial %d: Batch.Len %d != %d apps", trial, b.Len(), len(s.Apps))
		}
		dim := Dim(s.NumCores, len(s.Clusters))
		got := make([]float64, dim)
		want := make([]float64, dim)
		for aoi := range s.Apps {
			b.VectorInto(got, aoi)
			refVectorInto(want, s, aoi)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d aoi %d feature %d: batched %v != direct %v\napp %+v",
						trial, aoi, k, got[k], want[k], s.Apps[aoi])
				}
			}
			for c := 0; c < s.NumCores; c++ {
				occ := 0
				for _, a := range s.Apps {
					if a.Core == c {
						occ++
					}
				}
				if b.Occupancy(c) != occ {
					t.Fatalf("trial %d: Occupancy(%d) = %d, want %d", trial, c, b.Occupancy(c), occ)
				}
			}
		}
	}
}

// TestAssembleMatchesBatch checks the design-time entry point against the
// run-time one: Assemble, fed the components of a Batch row (as the oracle
// feeds it its swept levels), rebuilds that row bit for bit.
func TestAssembleMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b Batch
	for trial := 0; trial < 100; trial++ {
		s := randomSnapshot(rng)
		b.Reset(s)
		nc, ncl := s.NumCores, len(s.Clusters)
		row := make([]float64, Dim(nc, ncl))
		for aoi, a := range s.Apps {
			b.VectorInto(row, aoi)
			got := Assemble(a.IPS, a.L2DPS, a.Core, nc, a.QoS,
				row[3+nc:UtilOffset(nc, ncl)], row[UtilOffset(nc, ncl):])
			if !reflect.DeepEqual(got, row) {
				t.Fatalf("trial %d aoi %d: Assemble %v != Batch row %v", trial, aoi, got, row)
			}
		}
	}
}

// TestBatchPanics pins the same guard behavior as the per-AoI path.
func TestBatchPanics(t *testing.T) {
	var b Batch
	b.Reset(snap())
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	dim := Dim(8, 2)
	mustPanic("bad AoI", func() { b.VectorInto(make([]float64, dim), 9) })
	mustPanic("negative AoI", func() { b.VectorInto(make([]float64, dim), -1) })
	mustPanic("short buffer", func() { b.VectorInto(make([]float64, dim-1), 0) })
}

// TestFromEnvIntoMatchesFromEnv checks that the reusing capture path fills
// exactly the snapshot a fresh capture (FromEnv) builds, including on
// reuse with a stale larger app list in the destination.
func TestFromEnvIntoMatchesFromEnv(t *testing.T) {
	cfg := sim.DefaultConfig(true, 25)
	e := sim.New(cfg)
	for i, name := range []string{"adi", "gemm", "atax"} {
		spec, _ := workload.ByName(name)
		spec.TotalInstr = 1e18
		e.AddJob(workload.Job{Spec: spec, QoS: 1e9, Arrival: float64(i) * 0.2})
	}
	e.Run(&freqPin{little: 8, big: 8}, 1)

	var dst Snapshot
	var views []sim.AppView
	// Pre-fill with stale state so reuse has something to overwrite.
	views = FromEnvInto(&dst, e.Env(), views)
	e.Run(nil, 0.5)
	views = FromEnvInto(&dst, e.Env(), views)
	want := FromEnv(e.Env())
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("FromEnvInto snapshot differs from FromEnv:\n got %+v\nwant %+v", dst, want)
	}
	if len(views) != len(want.Apps) {
		t.Fatalf("views length %d != %d apps", len(views), len(want.Apps))
	}
}

// TestBatchSteadyStateAllocs pins the alloc-free reuse contract of the
// whole per-epoch batch path: capture + Reset + all rows.
func TestBatchSteadyStateAllocs(t *testing.T) {
	cfg := sim.DefaultConfig(true, 25)
	e := sim.New(cfg)
	for i, name := range []string{"adi", "gemm", "atax", "bicg"} {
		spec, _ := workload.ByName(name)
		spec.TotalInstr = 1e18
		e.AddJob(workload.Job{Spec: spec, QoS: 1e9, Arrival: float64(i) * 0.1})
	}
	e.Run(&freqPin{little: 8, big: 8}, 1)

	var dst Snapshot
	var views []sim.AppView
	var b Batch
	var rows [][]float64
	warm := func() {
		views = FromEnvInto(&dst, e.Env(), views)
		b.Reset(dst)
		dim := Dim(dst.NumCores, len(dst.Clusters))
		for len(rows) < b.Len() {
			rows = append(rows, make([]float64, dim))
		}
		for i := 0; i < b.Len(); i++ {
			b.VectorInto(rows[i], i)
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Fatalf("steady-state batch path allocates %v times per epoch", allocs)
	}
}
