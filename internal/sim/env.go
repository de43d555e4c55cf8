package sim

import (
	"repro/internal/platform"
)

// AppView is the policy-visible state of one running application: exactly
// what the paper's user-space daemon can read via the perf API and /proc.
type AppView struct {
	ID         AppID
	Name       string  // process name (benchmarks are identifiable in /proc)
	QoS        float64 // user-defined QoS target (IPS)
	Core       platform.CoreID
	IPS        float64 // windowed instructions per second (perf counter)
	L2DPS      float64 // windowed L2D accesses per second (perf counter)
	SinceStart float64 // seconds since arrival
}

// Env is the interface between management policies and the platform. It
// deliberately exposes only run-time observables that exist on the real
// board — in particular, no power readings and no simulator internals.
type Env struct {
	engine *Engine
}

// Platform returns the static chip description.
func (v *Env) Platform() *platform.Platform { return v.engine.cfg.Platform }

// Now returns the current time in seconds.
func (v *Env) Now() float64 { return v.engine.now }

// Apps returns a view of all currently running (arrived, unfinished)
// applications, ordered by ID.
func (v *Env) Apps() []AppView {
	return v.AppsInto(nil)
}

// AppsInto is Apps appending into dst[:0], so a policy that keeps the
// returned slice between calls stops allocating once it has grown to the
// peak application count. The views are ordered by ID, as in Apps.
func (v *Env) AppsInto(dst []AppView) []AppView {
	e := v.engine
	dst = dst[:0]
	for _, a := range e.apps {
		if !a.arrived || a.done {
			continue
		}
		dst = append(dst, AppView{
			ID:         a.id,
			Name:       a.job.Spec.Name,
			QoS:        a.job.QoS,
			Core:       a.core,
			IPS:        a.windowIPS(),
			L2DPS:      a.windowL2D(),
			SinceStart: e.now - a.start,
		})
	}
	return dst
}

// CoreUtil returns the busy fraction of core c over the perf window.
func (v *Env) CoreUtil(c platform.CoreID) float64 {
	e := v.engine
	n := e.utilLen
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += e.coreUtil[i*len(e.byCore)+int(c)]
	}
	return sum / float64(n)
}

// CoreOccupied reports whether any application is currently mapped to c.
func (v *Env) CoreOccupied(c platform.CoreID) bool {
	return len(v.engine.byCore[c]) > 0
}

// AppsOnCore returns the IDs of running applications mapped to core c.
func (v *Env) AppsOnCore(c platform.CoreID) []AppID {
	return append([]AppID(nil), v.engine.byCore[c]...)
}

// Temp returns the latest 20 Hz sample of the on-board thermal sensor (°C).
func (v *Env) Temp() float64 { return v.engine.sensorT }

// ClusterFreqIndex returns the VF level currently requested for cluster ci
// (the effective level may be lower under DTM throttling, which is opaque
// to user space, as on the real board).
func (v *Env) ClusterFreqIndex(ci int) int { return v.engine.freqIdx[ci] }

// ClusterFreq returns the currently requested frequency of cluster ci in Hz.
func (v *Env) ClusterFreq(ci int) float64 {
	return v.engine.cfg.Platform.Clusters[ci].FreqAt(v.engine.freqIdx[ci])
}

// SetClusterFreqIndex requests VF level idx for cluster ci via the
// userspace governor. Out-of-range levels are clamped.
func (v *Env) SetClusterFreqIndex(ci, idx int) {
	c := v.engine.cfg.Platform.Clusters[ci]
	if idx < 0 {
		idx = 0
	}
	if idx >= c.NumOPPs() {
		idx = c.NumOPPs() - 1
	}
	if v.engine.freqIdx[ci] != idx {
		v.engine.tel.dvfsChanges.Inc()
		v.engine.perfEpoch++ // per-app perf caches must re-read the new level
	}
	v.engine.freqIdx[ci] = idx
}

// Migrate moves application id to the given core using the affinity
// mechanism. Migrating to the current core is a no-op.
func (v *Env) Migrate(id AppID, core platform.CoreID) error {
	return v.engine.migrate(id, core)
}

// ChargeOverhead accounts `seconds` of management computation, which the
// engine deducts from core 0's capacity (the paper's daemon is a
// single-threaded user-space process).
func (v *Env) ChargeOverhead(seconds float64) {
	if seconds > 0 {
		v.engine.overheadDebt += seconds
	}
}
