package main

import (
	"math"
	"sort"
)

// samples holds raw observations. Every percentile the benchmark reports
// comes from the full sample set by nearest rank, so a reported quantile
// is always one of the observations: it is monotone in q, never above the
// maximum and never below the minimum. Bucketed estimators such as
// telemetry.Histogram.Quantile are deliberately not used.
type samples []float64

// sorted returns an ascending copy.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile (0 <= q <= 1) of s, or 0
// for an empty set.
func (s samples) quantile(q float64) float64 {
	return quantileSorted(s.sorted(), q)
}

// quantileSorted is quantile over an already ascending slice.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	switch {
	case q <= 0:
		return xs[0]
	case q >= 1:
		return xs[len(xs)-1]
	}
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

// median is quantile(0.5).
func (s samples) median() float64 { return s.quantile(0.5) }

// max returns the largest observation, or 0 for an empty set.
func (s samples) max() float64 {
	m := 0.0
	for i, v := range s {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// sum adds the observations.
func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}
