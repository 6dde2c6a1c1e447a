package main

import (
	"math"

	"repro/internal/obs"
)

// series is the union of registry snapshots the program already exports,
// read as they are.
type series []obs.Metric

func readSeries(regs ...*obs.Registry) series {
	var s series
	for _, r := range regs {
		if r != nil {
			s = append(s, r.Snapshot()...)
		}
	}
	return s
}

// matches reports whether m is named name and carries every key=value
// pair of kv.
func matches(m obs.Metric, name string, kv []string) bool {
	if m.Name != name {
		return false
	}
	for i := 0; i+1 < len(kv); i += 2 {
		found := false
		for _, l := range m.Labels {
			if l.Key == kv[i] && l.Value == kv[i+1] {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// count sums the value of every matching counter (or histogram sample
// count) across registries.
func (s series) count(name string, kv ...string) float64 {
	var v int64
	for _, m := range s {
		if matches(m, name, kv) {
			v += m.Value
		}
	}
	return float64(v)
}

// hist merges every matching histogram across registries.
func (s series) hist(name string, kv ...string) (n int64, sum float64, buckets []obs.Bucket) {
	for _, m := range s {
		if m.Kind != "histogram" || !matches(m, name, kv) {
			continue
		}
		n += m.Value
		sum += m.Sum
		if buckets == nil {
			buckets = append([]obs.Bucket(nil), m.Buckets...)
			continue
		}
		for i := range buckets {
			buckets[i].Count += m.Buckets[i].Count
		}
	}
	return n, sum, buckets
}

func (s series) histMean(name string, kv ...string) float64 {
	n, sum, _ := s.hist(name, kv...)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// histQuantile estimates a quantile from the buckets by interpolating
// linearly inside the bucket that holds it; the overflow bucket reports
// its lower edge.
func (s series) histQuantile(q float64, name string, kv ...string) float64 {
	n, _, buckets := s.hist(name, kv...)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum, lower float64
	for _, b := range buckets {
		next := cum + float64(b.Count)
		if next >= rank && b.Count > 0 {
			if math.IsInf(b.UpperBound, 1) {
				return lower
			}
			return lower + (rank-cum)/float64(b.Count)*(b.UpperBound-lower)
		}
		cum = next
		if !math.IsInf(b.UpperBound, 1) {
			lower = b.UpperBound
		}
	}
	return lower
}
