// Package benchkit holds the solver benchmark bodies shared between the
// repo's `go test -bench` harness (bench_parallel_test.go) and the
// cmd/benchjson trajectory writer, so both measure exactly the same
// workloads. The fixtures mirror the paper's evaluation: the E3
// self-tuning step (25 waiting jobs on the 430-processor machine) and the
// E5 consecutive-step blow-up instance (near-tied widths and durations on
// a 16-processor machine, the degenerate plateau that makes branch and
// bound unpredictable).
package benchkit

import (
	"testing"

	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/policy"
	"repro/internal/stats"
)

// StepFixture is the E3 self-tuning step workload: 25 waiting jobs, a
// 430-processor machine with a 200-wide reservation.
type StepFixture struct {
	Sched   *dynp.Scheduler
	Base    *machine.Profile
	Waiting []*job.Job
}

// NewStepFixture builds the E3 fixture (seed 11, matching
// BenchmarkSelfTuningStep25Jobs).
func NewStepFixture(parallel bool) *StepFixture {
	r := stats.NewRand(11)
	base := machine.New(430, 0)
	base.Reserve(0, 7200, 200)
	var waiting []*job.Job
	for k := 0; k < 25; k++ {
		est := int64(r.Intn(14400) + 60)
		waiting = append(waiting, &job.Job{ID: k + 1, Submit: int64(r.Intn(3600)),
			Width: r.Intn(64) + 1, Estimate: est, Runtime: est})
	}
	sched := dynp.MustNew(policy.Standard(), metrics.SLDwA{}, dynp.AdvancedDecider{})
	sched.SetParallel(parallel)
	return &StepFixture{Sched: sched, Base: base, Waiting: waiting}
}

// BenchSelfTuningStep returns the E3 benchmark body: one full self-tuning
// step (three policy schedules + decision) per iteration.
func BenchSelfTuningStep(parallel bool) func(b *testing.B) {
	return func(b *testing.B) {
		fx := NewStepFixture(parallel)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fx.Sched.Step(3600, fx.Base, fx.Waiting); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BlowupModel builds the E5 blow-up instance with n jobs (seed 1234,
// matching BenchmarkConsecutiveStepBlowup) on the minute grid.
func BlowupModel(n int) (*ilpsched.Model, error) {
	r := stats.NewRand(1234)
	jobs := make([]*job.Job, n)
	for k := 0; k < n; k++ {
		// Near-tied widths/durations create the degenerate plateaus that
		// blow up branch and bound.
		est := int64(1800 + 60*r.Intn(4))
		jobs[k] = &job.Job{ID: k + 1, Submit: 0, Width: 5 + r.Intn(3),
			Estimate: est, Runtime: est}
	}
	base := machine.New(16, 0)
	var horizon int64
	for _, p := range policy.Standard() {
		s, err := policy.Build(p, 0, base, jobs)
		if err != nil {
			return nil, err
		}
		if mk := s.Makespan(); mk > horizon {
			horizon = mk
		}
	}
	inst := &ilpsched.Instance{Now: 0, Machine: 16, Base: base, Jobs: jobs, Horizon: horizon}
	return ilpsched.Build(inst, 60)
}

// blowupOptions bounds one benchmark solve of the E5 instance: enough
// nodes to exercise the tree without letting a degenerate run dominate
// the measurement.
func blowupOptions(workers int) mip.Options {
	return mip.Options{MaxNodes: 2000, Workers: workers}
}

// BenchParallelBnB returns the branch-and-bound benchmark body: one
// bounded solve of the 7-job E5 blow-up instance per iteration with the
// given worker count. Rebuilding the model inside the loop is part of the
// measured path on purpose — it is what every dynpsim self-tuning step
// pays — and it also resets the bound state between solves.
func BenchParallelBnB(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := BlowupModel(7)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Solve(blowupOptions(workers)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchWarmStart returns the warm-start/allocation benchmark body: one
// serial bounded solve of the 6-job E5 instance per iteration. Its
// allocs/op tracks the search's per-worker LP workspace and the arena
// build in ilpsched; its WarmStartHits tracks the dual-simplex and
// primal-repair warm paths. dense selects the explicit-inverse basis
// instead of the default sparse LU, so the two representations can be
// benchmarked against each other.
func BenchWarmStart(dense bool) func(b *testing.B) {
	return func(b *testing.B) {
		opt := blowupOptions(1)
		opt.LP.DenseBasis = dense
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := BlowupModel(6)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Solve(opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// WarmStartStatsResult carries the basis-telemetry aggregates of one
// instrumented warm-start solve for the machine-readable benchmark
// trajectory.
type WarmStartStatsResult struct {
	WarmStartHits    int
	LPSolves         int
	EtaUpdates       int
	FTUpdates        int
	LUFill           int
	RefactorTriggers int
}

// WarmStartStats runs one instrumented solve of the 6-job E5 instance in
// the selected basis mode and returns its warm-start and basis-update
// telemetry.
func WarmStartStats(dense bool) (WarmStartStatsResult, error) {
	m, err := BlowupModel(6)
	if err != nil {
		return WarmStartStatsResult{}, err
	}
	opt := blowupOptions(1)
	opt.LP.DenseBasis = dense
	sol, err := m.Solve(opt)
	if err != nil {
		return WarmStartStatsResult{}, err
	}
	return WarmStartStatsResult{
		WarmStartHits:    sol.MIP.WarmStartHits,
		LPSolves:         sol.MIP.LPSolves,
		EtaUpdates:       sol.MIP.EtaUpdates,
		FTUpdates:        sol.MIP.FTUpdates,
		LUFill:           sol.MIP.LUFill,
		RefactorTriggers: sol.MIP.RefactorTriggers,
	}, nil
}
