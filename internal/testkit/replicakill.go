package testkit

import "sort"

// ReplicaKill is one scheduled replica crash in a chaos run: at AtMs
// milliseconds into the run, replica index Replica is killed abruptly;
// when RestartAfterMs is positive it is restarted that many milliseconds
// after the kill. All times are integer milliseconds of wall schedule —
// the plan itself carries no clock, so a seeded plan is byte-identical
// across runs and machines (the detrand discipline).
type ReplicaKill struct {
	AtMs           int // kill time, ms after the run starts
	Replica        int // replica index in [0, replicas)
	RestartAfterMs int // restart delay after the kill; 0 = stays dead
}

// ReplicaKillPlan draws `kills` replica crashes spread over a run of
// windowMs milliseconds against `replicas` replicas. Kills are drawn
// uniformly over the middle 80% of the window (a kill at t=0 tests
// nothing, one at the very end races run teardown), sorted by time, and
// recorded in the chaos event log in schedule order. Restarts land
// between 10% and 50% of the window after their kill.
//
// The plan never assigns two kills to the same replica — each crash
// exercises an independent journal — so kills is capped at replicas.
func (c *Chaos) ReplicaKillPlan(replicas, kills, windowMs int) []ReplicaKill {
	if replicas <= 0 || kills <= 0 || windowMs <= 0 {
		return nil
	}
	if kills > replicas {
		kills = replicas
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	lo := windowMs / 10
	span := windowMs - 2*lo
	if span < 1 {
		span = 1
	}
	victims := c.rng.Perm(replicas)[:kills]
	plan := make([]ReplicaKill, kills)
	for i := 0; i < kills; i++ {
		plan[i] = ReplicaKill{
			AtMs:           lo + c.rng.Intn(span),
			Replica:        victims[i],
			RestartAfterMs: windowMs/10 + c.rng.Intn(max(windowMs*2/5, 1)),
		}
	}
	sort.Slice(plan, func(a, b int) bool {
		if plan[a].AtMs != plan[b].AtMs {
			return plan[a].AtMs < plan[b].AtMs
		}
		return plan[a].Replica < plan[b].Replica
	})
	for _, k := range plan {
		c.record("cluster", "replica-kill", "t=+%dms replica=%d restart=+%dms",
			k.AtMs, k.Replica, k.RestartAfterMs)
	}
	return plan
}
