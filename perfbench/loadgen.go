package main

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	due  time.Duration // from the phase start
	rows [][]float64
}

// schedule draws a seeded Poisson arrival process at rate requests/s over
// dur. Half the requests carry one feature row (an AoI query), half carry
// eightRows rows (one TOP-IL migration epoch); feature values are uniform
// in [0, 1). The same (seed, rate, dur, dim) always gives the same
// schedule.
func schedule(seed int64, rate float64, dur time.Duration, dim int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		n := 1
		if rng.Intn(2) == 1 {
			n = eightRows
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, dim)
			for j := range rows[i] {
				rows[i][j] = rng.Float64()
			}
		}
		out = append(out, arrival{due: due, rows: rows})
	}
}

// eightRows is the row count of a multi-row request: one row per
// application of an 8-application TOP-IL epoch.
const eightRows = 8

// sent is what the generator observed for one arrival.
type sent struct {
	dispatched time.Time // when the generator released it (late = dispatched - due)
	start, end time.Time // when a connection took it, and when the reply was read
	err        error
}

// openLoop releases every arrival at its due time and serves the released
// arrivals with `conns` concurrent senders, so at most that many requests
// are in flight. An arrival that finds every sender busy waits in an
// unbounded queue: nothing is dropped, and latency measured from the due
// time includes that wait. It returns per-arrival observations and the
// largest queue length seen.
func openLoop(arrivals []arrival, conns int, send func(i int) error) (obs []sent, phaseStart time.Time, backlogMax int) {
	obs = make([]sent, len(arrivals))
	queue := make(chan int, len(arrivals)) // holds every arrival: never blocks, never drops
	var mu sync.Mutex
	queued := 0
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				mu.Lock()
				queued--
				mu.Unlock()
				obs[i].start = time.Now()
				obs[i].err = send(i)
				obs[i].end = time.Now()
			}
		}()
	}
	phaseStart = time.Now()
	for i, a := range arrivals {
		if d := time.Until(phaseStart.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		obs[i].dispatched = time.Now()
		mu.Lock()
		queued++
		backlogMax = max(backlogMax, queued)
		mu.Unlock()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return obs, phaseStart, backlogMax
}

// latencyMs is arrival i's latency from its due time, in ms.
func latencyMs(phaseStart time.Time, a arrival, s sent) float64 {
	return float64(s.end.Sub(phaseStart.Add(a.due))) / float64(time.Millisecond)
}

// lateMs is how late the generator released arrival i, in ms.
func lateMs(phaseStart time.Time, a arrival, s sent) float64 {
	return math.Max(0, float64(s.dispatched.Sub(phaseStart.Add(a.due)))/float64(time.Millisecond))
}
