package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when xs is empty). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// timing is a latency sample set in milliseconds, reported as its median
// and one tail percentile.
type timing struct {
	name string
	tail float64 // tail quantile, e.g. 0.99
	ms   []float64
}

func (t *timing) add(ms float64) { t.ms = append(t.ms, ms) }
func (t *timing) p50() float64   { return quantile(t.ms, 0.5) }
func (t *timing) pTail() float64 { return quantile(t.ms, t.tail) }
