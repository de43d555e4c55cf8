package features

import "repro/internal/sim"

// Batch is the run-time path from a Snapshot to feature rows: it
// precomputes the AoI-independent aggregates once, so building the rows
// for all n running applications costs O(n·(cores+clusters)) instead of
// the O(n²·clusters) of evaluating Eq. (2) per AoI:
//
//   - fmin caches each application's Eq. (1) minimum-frequency estimate
//     (it does not depend on which application is the AoI);
//   - per cluster, the maximum of fmin over the cluster's applications is
//     kept together with its multiplicity and the runner-up, so the
//     "required frequency without the AoI" of Eq. (2) is the top value —
//     or the runner-up when the AoI alone attains it;
//   - occ counts applications per core, so background occupancy is a
//     counter compare instead of a rescan of every application.
//
// Max and occupancy are order-independent, so every row is bit-identical
// to evaluating Eqs. (1)/(2) per AoI, the direct reference the tests keep
// (pinned by TestBatchMatchesVectorInto). The one assumption is that app
// IDs in the Snapshot are unique — the per-AoI definition excludes the
// AoI by ID, the batched one by index — which holds for every snapshot
// captured from a sim.Env.
type Batch struct {
	s    Snapshot
	fmin []float64 // per-app Eq. (1) estimate on its own cluster
	top1 []float64 // per-cluster max of fmin (-1 when the cluster is empty)
	n1   []int     // multiplicity of top1
	top2 []float64 // per-cluster runner-up strictly below top1 (-1 if none)
	occ  []int     // per-core application counts (AoI included)
}

// Reset recomputes the aggregates for s, reusing the Batch's backing
// storage. The Snapshot's slices are referenced, not copied: they must stay
// unchanged until the next Reset.
func (b *Batch) Reset(s Snapshot) {
	b.s = s
	b.fmin = resizeFloats(b.fmin, len(s.Apps))
	b.top1 = resizeFloats(b.top1, len(s.Clusters))
	b.top2 = resizeFloats(b.top2, len(s.Clusters))
	b.n1 = resizeInts(b.n1, len(s.Clusters))
	b.occ = resizeInts(b.occ, s.NumCores)
	for ci := range s.Clusters {
		b.top1[ci], b.n1[ci], b.top2[ci] = -1, 0, -1
	}
	for c := range b.occ {
		b.occ[c] = 0
	}
	for i, a := range s.Apps {
		cs := s.Clusters[a.Cluster]
		f, _ := EstimateMinFreq(cs.Freqs, cs.Freq, a.IPS, a.QoS)
		b.fmin[i] = f
		b.occ[a.Core]++
		switch {
		case f > b.top1[a.Cluster]:
			b.top2[a.Cluster] = b.top1[a.Cluster]
			b.top1[a.Cluster] = f
			b.n1[a.Cluster] = 1
		case f == b.top1[a.Cluster]:
			b.n1[a.Cluster]++
		case f > b.top2[a.Cluster]:
			b.top2[a.Cluster] = f
		}
	}
}

// Len returns the number of applications in the underlying snapshot.
func (b *Batch) Len() int { return len(b.s.Apps) }

// VectorInto builds the feature vector for the AoI at index aoi of the
// Reset snapshot into dst (length Dim), without heap allocation, by way of
// AssembleInto. It panics on an out-of-range index or a buffer of the
// wrong length.
//
//hot:per-epoch-inference-path
func (b *Batch) VectorInto(dst []float64, aoi int) {
	s := b.s
	if aoi < 0 || aoi >= len(s.Apps) {
		panicAoIRange(aoi, len(s.Apps))
	}
	if len(dst) != Dim(s.NumCores, len(s.Clusters)) {
		panicMsg("features: feature buffer length mismatch")
	}
	a := s.Apps[aoi]
	ratios := dst[3+s.NumCores : 3+s.NumCores+len(s.Clusters)]
	for ci, cs := range s.Clusters {
		req := b.top1[ci]
		if ci == a.Cluster && b.n1[ci] == 1 && b.fmin[aoi] == req {
			req = b.top2[ci] // the AoI alone attains the max: exclude it
		}
		if req < cs.Freqs[0] {
			req = cs.Freqs[0] // empty background defaults to the lowest OPP
		}
		ratios[ci] = req / cs.Freq
	}
	utils := dst[UtilOffset(s.NumCores, len(s.Clusters)):]
	for c := range utils {
		n := b.occ[c]
		if c == a.Core {
			n--
		}
		if n > 0 {
			utils[c] = 1
		} else {
			utils[c] = 0
		}
	}
	AssembleInto(dst, a.IPS, a.L2DPS, a.Core, s.NumCores, a.QoS, ratios, utils)
}

// Occupancy returns the number of applications currently mapped to core c
// (including any AoI), as counted by the last Reset.
func (b *Batch) Occupancy(c int) int { return b.occ[c] }

func resizeFloats(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

func resizeInts(v []int, n int) []int {
	if cap(v) < n {
		return make([]int, n)
	}
	return v[:n]
}

// FromEnvInto refills dst from the live simulation environment, reusing
// dst's backing slices; views is caller-owned scratch for the intermediate
// application list (pass the previous call's return value to stop
// allocating). FromEnv is this call into a fresh Snapshot.
func FromEnvInto(dst *Snapshot, env *sim.Env, views []sim.AppView) []sim.AppView {
	plat := env.Platform()
	dst.NumCores = plat.NumCores()
	if cap(dst.Clusters) < len(plat.Clusters) {
		dst.Clusters = make([]ClusterState, len(plat.Clusters))
	}
	dst.Clusters = dst.Clusters[:len(plat.Clusters)]
	for ci, c := range plat.Clusters {
		cs := &dst.Clusters[ci]
		if len(cs.Freqs) != c.NumOPPs() {
			cs.Freqs = make([]float64, c.NumOPPs())
		}
		for i := range cs.Freqs {
			cs.Freqs[i] = c.FreqAt(i)
		}
		cs.Freq = env.ClusterFreq(ci)
	}
	views = env.AppsInto(views)
	dst.Apps = dst.Apps[:0]
	for _, a := range views {
		dst.Apps = append(dst.Apps, AppState{
			ID:      a.ID,
			Core:    int(a.Core),
			Cluster: plat.ClusterIndexOf(a.Core),
			IPS:     a.IPS,
			L2DPS:   a.L2DPS,
			QoS:     a.QoS,
		})
	}
	return views
}
