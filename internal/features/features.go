// Package features implements the feature vector of the paper's Table 2 —
// the input of the IL migration model — and the frequency estimators of
// Eqs. (1) and (2).
//
// Per application of interest (AoI), the 21 features (for 8 cores and 2
// clusters) are:
//
//	(a) AoI characteristics: current QoS (IPS), L2D accesses per second,
//	    current mapping as a one-hot over all cores;
//	(b) the AoI's QoS target (IPS);
//	(c) background: per-cluster estimated required VF level if the AoI
//	    were not running, normalized by the cluster's current VF level,
//	    and the per-core utilizations.
//
// Assemble (and its buffer-reusing form AssembleInto) is the one
// definition of feature order and scaling. The design-time oracle calls
// Assemble directly with the swept VF levels of its traces. At run time
// the daemon captures a Snapshot of the live Env (FromEnvInto) and Batch
// derives the Eq. (1)/(2) background aggregates for every running
// application before handing each row to AssembleInto, so the model sees
// the same layout and scaling in both.
package features

import (
	"fmt"

	"repro/internal/sim"
)

// ipsScale normalizes IPS-valued features to roughly unit range.
const ipsScale = 1e9

// l2dScale normalizes the L2D-access-rate feature. L2D rates are an order
// of magnitude below IPS; scaling them to unit range matters because this
// feature carries the memory-boundedness signal that separates big-cluster-
// friendly from LITTLE-friendly applications near QoS-feasibility
// boundaries.
const l2dScale = 1e8

// ClusterState is the policy-visible state of one DVFS domain.
type ClusterState struct {
	Freqs []float64 // available frequencies, ascending (Hz)
	Freq  float64   // current frequency (Hz)
}

// AppState is the policy-visible state of one running application.
type AppState struct {
	ID      sim.AppID
	Core    int
	Cluster int     // index into Snapshot.Clusters
	IPS     float64 // current QoS (windowed IPS)
	L2DPS   float64 // windowed L2D accesses per second
	QoS     float64 // QoS target (IPS)
}

// Snapshot is a platform state sufficient to build feature vectors for
// every running application.
//
// The core-utilization features are derived from Apps as *background*
// occupancy — whether a core hosts any application other than the AoI. The
// paper's training data defines them the same way (free cores read 0 even
// while the AoI occupies one of them), so the run-time path must match.
type Snapshot struct {
	NumCores int
	Clusters []ClusterState
	Apps     []AppState
}

// FromEnv captures a Snapshot from the live simulation environment — the
// run-time path of the paper's daemon (perf API + /proc + cpufreq). It is
// FromEnvInto into a fresh Snapshot.
func FromEnv(env *sim.Env) Snapshot {
	var s Snapshot
	FromEnvInto(&s, env, nil)
	return s
}

// Dim returns the feature vector length for a platform with the given core
// and cluster counts: QoS, L2D, one-hot mapping, QoS target, per-cluster
// frequency ratios, per-core utilizations.
func Dim(numCores, numClusters int) int {
	return 3 + 2*numCores + numClusters
}

// UtilOffset returns the index of the first core-utilization feature within
// a vector built by Assemble.
func UtilOffset(numCores, numClusters int) int {
	return 3 + numCores + numClusters
}

// EstimateMinFreq implements Eq. (1): the minimum frequency from freqs
// (ascending, Hz) at which application performance, linearly scaled from
// the current frequency fCur (Hz) and current IPS q (instr/s), reaches the
// target Q. ok is false if even the highest frequency falls short (the
// estimate then returns that highest frequency). It panics on an empty
// frequency list: every cluster has at least one OPP by construction.
func EstimateMinFreq(freqs []float64, fCur, q, target float64) (float64, bool) {
	if len(freqs) == 0 {
		panic("features: empty frequency list")
	}
	if target <= 0 {
		return freqs[0], true
	}
	if fCur <= 0 || q <= 0 {
		// No throughput information yet (e.g. app just arrived):
		// conservatively demand the highest level.
		return freqs[len(freqs)-1], false
	}
	for _, f := range freqs {
		if q*f/fCur >= target {
			return f, true
		}
	}
	return freqs[len(freqs)-1], false
}

// panicMsg keeps panic's interface conversion out of the //hot callers:
// even a constant message counts against the zero-allocation gate. It
// always panics with msg.
//
//go:noinline
func panicMsg(msg string) { panic(msg) }

// panicAoIRange keeps the formatting allocation out of the //hot callers:
// fmt.Sprintf arguments escape, and the gate must only see the live path.
//
//go:noinline
func panicAoIRange(aoi, n int) {
	panic(fmt.Sprintf("features: AoI index %d out of range [0,%d)", aoi, n))
}

// Assemble builds the raw feature vector from its components: ips and the
// QoS target in instr/s, l2dps in accesses per second, freqRatios
// dimensionless (required/current per cluster). It is the single place
// defining feature order and scaling, shared by the run-time path (Batch)
// and the design-time oracle, so both produce identical distributions.
// It panics on an out-of-range AoI core or a utilization vector whose
// length differs from numCores.
func Assemble(ips, l2dps float64, aoiCore, numCores int, qosTarget float64,
	freqRatios, utils []float64) []float64 {
	v := make([]float64, Dim(numCores, len(freqRatios)))
	AssembleInto(v, ips, l2dps, aoiCore, numCores, qosTarget, freqRatios, utils)
	return v
}

// AssembleInto is Assemble writing into a caller-owned buffer of length
// Dim(numCores, len(freqRatios)); it performs no heap allocation. The
// freqRatios and utils arguments may alias their own segments of dst
// (Batch.VectorInto relies on this to stay scratch-free).
//
//hot:per-epoch-inference-path
func AssembleInto(dst []float64, ips, l2dps float64, aoiCore, numCores int,
	qosTarget float64, freqRatios, utils []float64) {
	if aoiCore < 0 || aoiCore >= numCores {
		panicCoreRange(aoiCore, numCores)
	}
	if len(utils) != numCores {
		panicMsg("features: utilization vector length mismatch")
	}
	if len(dst) != Dim(numCores, len(freqRatios)) {
		panicMsg("features: feature buffer length mismatch")
	}
	// (a) AoI characteristics.
	dst[0] = ips / ipsScale
	dst[1] = l2dps / l2dScale
	for c := 0; c < numCores; c++ {
		if c == aoiCore {
			dst[2+c] = 1
		} else {
			dst[2+c] = 0
		}
	}
	// (b) QoS target.
	dst[2+numCores] = qosTarget / ipsScale
	// (c) background: required per-cluster frequency without the AoI,
	// relative to the current frequency, and per-core occupancy.
	copy(dst[3+numCores:], freqRatios)
	copy(dst[3+numCores+len(freqRatios):], utils)
}

// panicCoreRange keeps the formatting allocation out of the //hot callers.
//
//go:noinline
func panicCoreRange(core, n int) {
	panic(fmt.Sprintf("features: AoI core %d out of range [0,%d)", core, n))
}
