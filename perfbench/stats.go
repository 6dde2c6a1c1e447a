package main

import (
	"math"
	"sort"
	"time"
)

// sample is a growable set of observations in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (0 for an empty sample).
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

// tailQ is the gated tail percentile: p90, or the highest percentile of
// n samples that still has at least ten samples beyond it when n < 100
// (never below the median).
// A p99 on a shared 2-vCPU host swings with every neighbour's burst; the
// p99 itself is printed with the named metrics.
func tailQ(n int) float64 {
	return math.Max(0.5, math.Min(0.9, 1-10/float64(n)))
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s sample) max() float64 {
	var m float64
	for _, v := range s {
		m = math.Max(m, v)
	}
	return m
}

// sgm is the shifted geometric mean exp(mean(ln(v+shift))) - shift, the
// solver-benchmark average that neither the fastest nor the slowest
// instances dominate.
func (s sample) sgm(shift float64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += math.Log(v + shift)
	}
	return math.Exp(sum/float64(len(s))) - shift
}

func median(v []float64) float64 { return sample(v).quantile(0.5) }

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// windows splits one latency family into consecutive windows of the run.
// Each figure is the median over the windows of that figure within a
// window, so a transient stall of the host moves one window's figure,
// not the run's.
type windows []sample

// add records d for an operation at position frac in [0, 1) of the run.
func (w windows) add(frac float64, d time.Duration) {
	i := min(max(int(frac*float64(len(w))), 0), len(w)-1)
	w[i].add(d)
}

func (w windows) n() int {
	n := 0
	for _, s := range w {
		n += len(s)
	}
	return n
}

// each returns the median over non-empty windows of f(window).
func (w windows) each(f func(sample) float64) float64 {
	var v []float64
	for _, s := range w {
		if len(s) > 0 {
			v = append(v, f(s))
		}
	}
	return median(v)
}
