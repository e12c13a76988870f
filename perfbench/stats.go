package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail estimated from fewer is one or two outliers, not a tail.
const minTail = 10

// sample is a set of latency observations of one kind.
type sample []time.Duration

// percentile returns the p-th percentile (0 < p < 100, nearest rank) and
// refuses a tail with fewer than minTail samples beyond it. The median
// (p = 50) needs only one sample.
func (s sample) percentile(p float64) (time.Duration, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("p%g of an empty sample", p)
	}
	if p > 50 {
		if beyond := int(math.Floor(float64(len(s)) * (100 - p) / 100)); beyond < minTail {
			return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, len(s), beyond, minTail)
		}
	}
	sorted := append(sample(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank], nil
}

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us renders a duration as fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianF is the median of a float slice (0 for an empty one).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// slicedMedian splits the events of a window of length span into k equal
// time slices by completion time, evaluates f on each slice, and returns
// the median: a window statistic that a slow spell of the host shorter
// than half the window cannot move far. ok is false when f refuses a
// slice.
func slicedMedian(evs []event, span time.Duration, k int, f func([]event, time.Duration) (float64, bool)) (float64, bool) {
	slices := make([][]event, k)
	for _, e := range evs {
		i := min(int(int64(e.at)*int64(k)/int64(span)), k-1)
		slices[i] = append(slices[i], e)
	}
	vals := make([]float64, k)
	for i, sl := range slices {
		v, ok := f(sl, span/time.Duration(k))
		if !ok {
			return 0, false
		}
		vals[i] = v
	}
	return medianF(vals), true
}
