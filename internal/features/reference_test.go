package features

import "repro/internal/sim"

// The per-AoI reference: Eq. (2) and the background occupancy evaluated
// directly for one AoI, in O(n·clusters) per row. It is the definition
// Batch's shared aggregates must reproduce bit for bit
// (TestBatchMatchesVectorInto); nothing outside the tests runs it.

// refRequiredFreqWithout implements Eq. (2): the estimated VF level
// cluster `cluster` must hold to keep all background applications
// (everything except aoiID) at their QoS targets. With no background on
// the cluster it returns the lowest frequency.
func refRequiredFreqWithout(s Snapshot, cluster int, aoiID sim.AppID) float64 {
	cs := s.Clusters[cluster]
	req := cs.Freqs[0]
	for _, a := range s.Apps {
		if a.ID == aoiID || a.Cluster != cluster {
			continue
		}
		f, _ := EstimateMinFreq(cs.Freqs, cs.Freq, a.IPS, a.QoS)
		if f > req {
			req = f
		}
	}
	return req
}

// refVectorInto builds the feature vector for the AoI at index aoi in
// s.Apps into dst, which must have length Dim(s.NumCores,
// len(s.Clusters)). The per-cluster ratio and per-core utilization scratch
// live inside dst itself (the layout reserves their segments). It panics
// on an out-of-range index or a buffer of the wrong length.
//
//hot:per-epoch-inference-path
func refVectorInto(dst []float64, s Snapshot, aoi int) {
	if aoi < 0 || aoi >= len(s.Apps) {
		panicAoIRange(aoi, len(s.Apps))
	}
	if len(dst) != Dim(s.NumCores, len(s.Clusters)) {
		panicMsg("features: feature buffer length mismatch")
	}
	a := s.Apps[aoi]
	ratios := dst[3+s.NumCores : 3+s.NumCores+len(s.Clusters)]
	for ci, cs := range s.Clusters {
		ratios[ci] = refRequiredFreqWithout(s, ci, a.ID) / cs.Freq
	}
	utils := dst[UtilOffset(s.NumCores, len(s.Clusters)):]
	refBackgroundOccupancyInto(utils, s, a.ID)
	AssembleInto(dst, a.IPS, a.L2DPS, a.Core, s.NumCores, a.QoS, ratios, utils)
}

// refBackgroundOccupancyInto fills dst (length s.NumCores) with the
// per-core utilization features: 1 if the core hosts any application
// other than aoiID, else 0. It panics on a length mismatch.
//
//hot:per-epoch-inference-path
func refBackgroundOccupancyInto(dst []float64, s Snapshot, aoiID sim.AppID) {
	if len(dst) != s.NumCores {
		panicMsg("features: utilization buffer length mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, b := range s.Apps {
		if b.ID != aoiID {
			dst[b.Core] = 1
		}
	}
}
