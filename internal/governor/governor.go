// Package governor implements the state-of-the-practice Linux/Android
// baselines of the paper: the GTS (global task scheduling) scheduler for
// big.LITTLE, paired with the ondemand or powersave cpufreq governors.
//
// These policies are QoS-oblivious and application-characteristic-oblivious
// by design — that is precisely the gap the paper's TOP-IL fills — but they
// are implemented faithfully: GTS migrates compute-hungry applications to
// the big cluster and load-balances, ondemand scales frequency with
// utilization, powersave pins the lowest VF level.
package governor

import (
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FreqPolicy selects a VF level for one cluster from its utilization — the
// cpufreq governor abstraction.
type FreqPolicy interface {
	Name() string
	// Level returns the desired VF level index given the cluster's
	// maximum per-core utilization in [0,1] and its ladder size.
	Level(util float64, numOPPs int) int
}

// Ondemand scales the VF level with utilization: above UpThreshold it jumps
// to the maximum (the classic ondemand behaviour), below it the frequency
// is proportional to load.
type Ondemand struct {
	// UpThreshold is the utilization above which the maximum level is
	// selected (Linux default 95 %, vendor configs commonly 80 %).
	UpThreshold float64
}

// Name implements FreqPolicy.
func (o Ondemand) Name() string { return "ondemand" }

// Level implements FreqPolicy.
func (o Ondemand) Level(util float64, numOPPs int) int {
	up := o.UpThreshold
	if up <= 0 {
		up = 0.8
	}
	if util >= up {
		return numOPPs - 1
	}
	idx := int(util / up * float64(numOPPs-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= numOPPs {
		idx = numOPPs - 1
	}
	return idx
}

// Powersave always selects the lowest VF level, regardless of performance.
type Powersave struct{}

// Name implements FreqPolicy.
func (Powersave) Name() string { return "powersave" }

// Level implements FreqPolicy.
func (Powersave) Level(util float64, numOPPs int) int { return 0 }

// Schedutil scales frequency proportionally to utilization with the
// kernel's 25 % headroom (f = 1.25 · util · f_max), the successor of
// ondemand in mainline Linux. Not part of the paper's comparison; included
// for baseline breadth.
type Schedutil struct{}

// Name implements FreqPolicy.
func (Schedutil) Name() string { return "schedutil" }

// Level implements FreqPolicy.
func (Schedutil) Level(util float64, numOPPs int) int {
	target := 1.25 * util
	if target >= 1 {
		return numOPPs - 1
	}
	idx := int(target * float64(numOPPs))
	if idx >= numOPPs {
		idx = numOPPs - 1
	}
	return idx
}

// Performance always selects the highest VF level (included for
// completeness; not part of the paper's comparison).
type Performance struct{}

// Name implements FreqPolicy.
func (Performance) Name() string { return "performance" }

// Level implements FreqPolicy.
func (Performance) Level(util float64, numOPPs int) int { return numOPPs - 1 }

// GTS is the scheduler+governor manager. It implements sim.Manager and
// sim.Placer.
type GTS struct {
	policy FreqPolicy
	env    *sim.Env

	// RebalancePeriod is the scheduler's load-balancing interval.
	RebalancePeriod float64
	nextRebalance   float64
}

// NewGTS pairs the GTS scheduler with a frequency policy. It panics on a
// nil policy: a governor without a frequency law is a programming error.
func NewGTS(policy FreqPolicy) *GTS {
	if policy == nil {
		panic("governor: nil frequency policy")
	}
	return &GTS{policy: policy, RebalancePeriod: 0.1}
}

// Name implements sim.Manager.
func (g *GTS) Name() string { return "GTS/" + g.policy.Name() }

// gtsPolicies is the one table of named GTS baselines: each entry is
// reachable as "GTS/" + its Name(). Ondemand uses the vendor-typical 80 %
// up-threshold.
var gtsPolicies = []FreqPolicy{Ondemand{UpThreshold: 0.8}, Powersave{}, Schedutil{}, Performance{}}

// GTSNames lists the named GTS baselines in table order: "GTS/ondemand",
// "GTS/powersave", "GTS/schedutil", "GTS/performance".
func GTSNames() []string {
	names := make([]string, len(gtsPolicies))
	for i, p := range gtsPolicies {
		names[i] = "GTS/" + p.Name()
	}
	return names
}

// NewGTSByName returns a fresh GTS manager for one of GTSNames; ok is
// false for any other name.
func NewGTSByName(name string) (g *GTS, ok bool) {
	for _, p := range gtsPolicies {
		if name == "GTS/"+p.Name() {
			return NewGTS(p), true
		}
	}
	return nil, false
}

// Attach implements sim.Manager.
func (g *GTS) Attach(env *sim.Env) {
	g.env = env
	g.nextRebalance = 0
}

// Place implements sim.Placer: GTS classifies our always-runnable
// benchmark processes as performance-hungry and wakes them on the big
// cluster when it has an idle core, else on the least-loaded core.
func (g *GTS) Place(job workload.Job) platform.CoreID {
	return g.pickCore(-1)
}

// pickCore returns the GTS target core for a (re)placement, ignoring the
// occupancy contribution of `self` (an AppID, or -1 for new arrivals):
// the least-occupied big core if it beats everything, else the globally
// least-occupied core, big cluster first on ties.
func (g *GTS) pickCore(self sim.AppID) platform.CoreID {
	plat := g.env.Platform()
	best := platform.CoreID(-1)
	bestN := 1 << 30
	bestBig := false
	for c := 0; c < plat.NumCores(); c++ {
		core := platform.CoreID(c)
		n := 0
		for _, id := range g.env.AppsOnCore(core) {
			if id != self {
				n++
			}
		}
		isBig := plat.KindOf(core) == platform.Big
		if n < bestN || (n == bestN && isBig && !bestBig) {
			best, bestN, bestBig = core, n, isBig
		}
	}
	return best
}

// Tick implements sim.Manager: apply the frequency policy each tick and
// rebalance the task placement at the scheduler period.
func (g *GTS) Tick(now float64) {
	plat := g.env.Platform()
	for ci, cl := range plat.Clusters {
		util := 0.0
		for _, c := range cl.Cores {
			if u := g.env.CoreUtil(c); u > util {
				util = u
			}
		}
		g.env.SetClusterFreqIndex(ci, g.policy.Level(util, cl.NumOPPs()))
	}
	if now >= g.nextRebalance-1e-9 {
		g.nextRebalance = now + g.RebalancePeriod
		g.rebalance()
	}
}

// rebalance performs GTS-style load balancing: up-migrate a busy task to an
// idle big core, and even out queue lengths (move from the most crowded
// core to the least crowded when the imbalance exceeds one task).
func (g *GTS) rebalance() {
	plat := g.env.Platform()
	apps := g.env.Apps()
	if len(apps) == 0 {
		return
	}
	occ := make([]int, plat.NumCores())
	for _, a := range apps {
		occ[a.Core]++
	}

	// Up-migration: fill idle big cores from LITTLE cores.
	bigCl, _ := plat.ClusterByKind(platform.Big)
	for _, bc := range bigCl.Cores {
		if occ[bc] != 0 {
			continue
		}
		// Busiest LITTLE core with at least one task.
		var victim *sim.AppView
		victimOcc := 0
		for i := range apps {
			a := &apps[i]
			if plat.KindOf(a.Core) != platform.Little {
				continue
			}
			if occ[a.Core] > victimOcc {
				victim, victimOcc = a, occ[a.Core]
			}
		}
		if victim == nil {
			break
		}
		if g.env.Migrate(victim.ID, bc) == nil {
			occ[victim.Core]--
			occ[bc]++
			victim.Core = bc
		}
	}

	// Queue-length balancing across all cores.
	for iter := 0; iter < len(apps); iter++ {
		maxC, minC := 0, 0
		for c := 1; c < len(occ); c++ {
			if occ[c] > occ[maxC] {
				maxC = c
			}
			if occ[c] < occ[minC] {
				minC = c
			}
		}
		if occ[maxC]-occ[minC] <= 1 {
			break
		}
		for i := range apps {
			a := &apps[i]
			if int(a.Core) == maxC {
				if g.env.Migrate(a.ID, platform.CoreID(minC)) == nil {
					occ[maxC]--
					occ[minC]++
					a.Core = platform.CoreID(minC)
				}
				break
			}
		}
	}
}
