package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minTail is the percentile-support rule: a percentile is reported only
// when at least this many samples lie beyond it, so a tail figure is never
// the single slowest op of a run.
const minTail = 10

// timings is one class of homogeneous durations.
type timings []float64

// sorted returns an ascending copy.
func (t timings) sorted() []float64 {
	s := append([]float64(nil), t...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the middle two for an even
// count), or 0 with no samples.
func (t timings) median() float64 {
	s := t.sorted()
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean, or 0 with no samples.
func (t timings) mean() float64 {
	if len(t) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range t {
		sum += v
	}
	return sum / float64(len(t))
}

// beyond returns how many of n samples lie strictly past the nearest-rank
// q-quantile: the quantile is the ⌈q·n⌉-th smallest sample.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// supported reports whether the q-quantile of n samples has at least
// minTail samples beyond it.
func supported(n int, q float64) bool { return n > 0 && beyond(n, q) >= minTail }

// percentile returns the nearest-rank q-quantile; ok is false when the
// percentile-support rule forbids reporting it.
func (t timings) percentile(q float64) (v float64, ok bool) {
	if !supported(len(t), q) {
		return 0, false
	}
	s := t.sorted()
	return s[len(s)-1-beyond(len(s), q)], true
}

// tailQuantiles are the percentiles summary considers, highest first.
var tailQuantiles = []struct {
	name string
	q    float64
}{{"p999", 0.999}, {"p99", 0.99}, {"p90", 0.9}}

// summary renders a timing class with its sample count, its median and
// the highest percentile the support rule allows.
func (t timings) summary(name, unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d p50=%.4f%s", name, len(t), t.median(), unit)
	for _, tq := range tailQuantiles {
		if v, ok := t.percentile(tq.q); ok {
			fmt.Fprintf(&b, " %s=%.4f%s", tq.name, v, unit)
			return b.String()
		}
	}
	fmt.Fprintf(&b, " (no tail percentile: fewer than %d samples beyond p90)", minTail)
	return b.String()
}
