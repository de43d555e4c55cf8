// Package online implements DAgger-style continual imitation learning for
// the serving stack: visited feature states are recorded to a bounded
// durable sample log, a background trainer queries the oracle for expert
// labels on those *visited* states (the DAgger correction — labels come
// from the expert, actions from the learner), merges them into an
// aggregated dataset and retrains the MLP off the request path. Candidate
// models are published to a versioned registry, scored in shadow against
// live traffic, auto-promoted through a gate on action agreement and
// simulated QoS / peak-temperature deltas, and auto-rolled-back when
// post-promotion telemetry regresses.
//
// The package is deterministic (seeded RNG everywhere, no wall-clock
// reads) except for loop.go, the wall-clock serve adapter that paces
// cycles in a real process.
package online

// OriginSim is the Sample.Origin of states visited by the simulation job
// pool: they carry full scenario context and are the DAgger labeling
// targets. Logs written by older builds may hold other origins (context-free
// "infer" rows); the labeler skips any sample that is not OriginSim.
const OriginSim = "sim"

// BackgroundRef identifies one background application pinned to a core at
// the time a state was visited — enough to rebuild the oracle scenario.
type BackgroundRef struct {
	Name string `json:"name"`
	Core int    `json:"core"`
}

// Sample is one visited state with the policy's chosen action: the DAgger
// unit of aggregation. Seq is the lifetime append index assigned by the
// SampleLog (1-based, monotonic), which makes reservoir decisions and
// journal replay exactly reproducible from (seed, Seq).
type Sample struct {
	Seq          uint64          `json:"seq"`
	Origin       string          `json:"origin"`
	AoI          string          `json:"aoi,omitempty"`   // benchmark name of the AoI
	Features     []float64       `json:"x"`               // feature vector handed to the policy
	Action       int             `json:"action"`          // core the policy's ratings argmax to
	QoS          float64         `json:"qos,omitempty"`   // AoI QoS target (instr/s)
	ClusterFreqs []float64       `json:"freqs,omitempty"` // per-cluster frequency at visit (Hz)
	Background   []BackgroundRef `json:"bg,omitempty"`
}
