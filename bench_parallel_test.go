package repro

import (
	"runtime"
	"testing"

	"repro/internal/benchkit"
)

// BenchmarkParallelBnB measures one bounded branch-and-bound solve of the
// E5 blow-up instance per worker count. The bodies live in
// internal/benchkit so cmd/benchjson measures the identical workload.
// Speedup over the 1-worker case is bounded by GOMAXPROCS; on a
// single-CPU host all sub-benchmarks collapse to the same wall clock.
func BenchmarkParallelBnB(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		w := w
		name := map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[w]
		b.Run(name, func(b *testing.B) {
			if w > 1 && runtime.GOMAXPROCS(0) == 1 {
				b.Logf("GOMAXPROCS=1: parallel speedup not observable on this host")
			}
			benchkit.BenchParallelBnB(w)(b)
		})
	}
}

// BenchmarkWarmStart measures the serial warm-start path on the 6-job E5
// instance in both basis representations; allocs/op tracks the
// per-worker LP workspace and the ilpsched build arena. basis=sparse is the default
// LU + Forrest–Tomlin core, basis=dense the explicit-inverse fallback.
func BenchmarkWarmStart(b *testing.B) {
	b.Run("basis=sparse", benchkit.BenchWarmStart(false))
	b.Run("basis=dense", benchkit.BenchWarmStart(true))
}

// BenchmarkNodeResolve measures one warm node re-solve of a sampled CTC
// step on a reused LP workspace: the per-node work of branch and bound.
// allocs/op pins the per-node allocation of the search.
func BenchmarkNodeResolve(b *testing.B) { benchkit.BenchNodeResolve(b) }
