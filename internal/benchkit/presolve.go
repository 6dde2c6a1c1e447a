// Presolve and cross-step-reuse benchmark bodies: sampled E1-style CTC
// self-tuning steps solved with and without the ilpsched presolve pass,
// plus an end-to-end ILP-driven simulation with and without cross-step
// reuse (step cache + previous-schedule incumbent). Shared between
// bench_presolve_test.go and cmd/benchjson like the rest of the kit.
package benchkit

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/plan"
	"repro/internal/policy"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/solvepipe"
	"repro/internal/workload"
)

// StepInstance is one sampled CTC self-tuning step: the quasi off-line
// instance plus the basic-policy schedules of the step (presolve
// upper-bound seeds).
type StepInstance struct {
	Inst  *ilpsched.Instance
	Seeds []*schedule.Schedule
}

// stepSampleScale is the Eq. 6 grid the sampled steps are solved on,
// matching the E1 determinism test.
const stepSampleScale = 120

var (
	sampleOnce  sync.Once
	sampleSteps []*StepInstance
	sampleErr   error
)

// SampledCTCSteps simulates the E1-style CTC workload (120 jobs, seed 7)
// and samples up to max eligible self-tuning steps — 4 to 12 waiting
// jobs, every other eligible step, the same sampling the determinism
// test uses. The result is memoized: every benchmark body measures the
// identical instances.
func SampledCTCSteps(max int) ([]*StepInstance, error) {
	sampleOnce.Do(func() {
		tr, err := workload.Generate(workload.CTC(), 120, 7)
		if err != nil {
			sampleErr = err
			return
		}
		eligible := 0
		cfg := sim.DefaultConfig()
		cfg.OnStep = func(sc *sim.StepContext) {
			n := len(sc.Waiting)
			if n < 4 || n > 12 || len(sc.Result.Evals) == 0 || len(sampleSteps) >= max {
				return
			}
			eligible++
			if (eligible-1)%2 != 0 {
				return
			}
			inst := plan.Instance(sc.Now, sc.Base, sc.Waiting, plan.Horizon(sc.Result.Evals))
			if inst == nil {
				return
			}
			var seeds []*schedule.Schedule
			for _, e := range sc.Result.Evals {
				seeds = append(seeds, e.Schedule)
			}
			sampleSteps = append(sampleSteps, &StepInstance{Inst: inst, Seeds: seeds})
		}
		sched := dynp.MustNew(policy.Standard(), metrics.SLDwA{}, dynp.AdvancedDecider{})
		s, err := sim.New(tr, sched, cfg)
		if err != nil {
			sampleErr = err
			return
		}
		if _, err := s.Run(); err != nil {
			sampleErr = err
			return
		}
		if len(sampleSteps) == 0 {
			sampleErr = fmt.Errorf("benchkit: CTC sampling produced no steps")
		}
	})
	if sampleErr != nil {
		return nil, sampleErr
	}
	if len(sampleSteps) > max {
		return sampleSteps[:max], nil
	}
	return sampleSteps, nil
}

// PresolveReduction aggregates the presolve stats over the sampled steps.
type PresolveReduction struct {
	Steps                       int `json:"steps"`
	VarsBefore, VarsAfter       int `json:"-"`
	EntriesBefore, EntriesAfter int `json:"-"`
	RowsBefore, RowsAfter       int `json:"-"`
}

// VarsRemovedPct returns the percentage of x_it columns presolve removed.
func (r *PresolveReduction) VarsRemovedPct() float64 {
	if r.VarsBefore == 0 {
		return 0
	}
	return 100 * float64(r.VarsBefore-r.VarsAfter) / float64(r.VarsBefore)
}

// EntriesRemovedPct returns the percentage of matrix entries removed.
func (r *PresolveReduction) EntriesRemovedPct() float64 {
	if r.EntriesBefore == 0 {
		return 0
	}
	return 100 * float64(r.EntriesBefore-r.EntriesAfter) / float64(r.EntriesBefore)
}

// PresolveReductionStats runs the presolve analysis on the sampled CTC
// steps and returns the aggregate before/after model sizes — the
// machine-readable reduction row of the benchmark trajectory.
func PresolveReductionStats() (*PresolveReduction, error) {
	steps, err := SampledCTCSteps(4)
	if err != nil {
		return nil, err
	}
	out := &PresolveReduction{Steps: len(steps)}
	for _, st := range steps {
		_, ps, err := ilpsched.BuildPresolved(st.Inst, stepSampleScale,
			ilpsched.PresolveOptions{Seeds: st.Seeds})
		if err != nil {
			return nil, err
		}
		out.VarsBefore += ps.VarsBefore
		out.VarsAfter += ps.VarsAfter
		out.EntriesBefore += ps.EntriesBefore
		out.EntriesAfter += ps.EntriesAfter
		out.RowsBefore += ps.RowsBefore
		out.RowsAfter += ps.RowsAfter
	}
	return out, nil
}

// BenchPresolveStepSolve returns the benchmark body for one full pass
// over the sampled CTC steps: build (reduced or unreduced) and solve to
// optimality. The presolve analysis is inside the measured path on
// purpose — its cost must be paid back by the smaller search.
func BenchPresolveStepSolve(presolve bool) func(b *testing.B) {
	return func(b *testing.B) {
		steps, err := SampledCTCSteps(4)
		if err != nil {
			b.Fatal(err)
		}
		opt := mip.Options{MaxNodes: 100000}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, st := range steps {
				var m *ilpsched.Model
				var err error
				if presolve {
					m, _, err = ilpsched.BuildPresolved(st.Inst, stepSampleScale,
						ilpsched.PresolveOptions{Seeds: st.Seeds})
				} else {
					m, err = ilpsched.Build(st.Inst, stepSampleScale)
				}
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Solve(opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// RecurringTrace builds the steady-state production-queue workload of
// the cross-step-reuse benchmark: every 2-hour period a whole-machine
// "backbone" job arrives on an idle 64-processor machine, followed by
// six class jobs (two recurring shape classes) at fixed offsets that all
// queue behind it and drain before the next period. Runtimes equal
// estimates, so every period after the first repeats the exact relative
// step instances of the first — the recurring-submission pattern the
// cross-step solution cache targets. (Synthetic-but-adversarial fixture
// in the spirit of the E5 blow-up instance.)
func RecurringTrace(periods int) *job.Trace {
	const (
		machine = 64
		period  = 7200
	)
	var jobs []*job.Job
	id := 0
	add := func(submit int64, width int, est int64) {
		id++
		jobs = append(jobs, &job.Job{
			ID: id, Submit: submit, Width: width, Estimate: est, Runtime: est,
		})
	}
	for p := 0; p < periods; p++ {
		t0 := int64(p) * period
		add(t0, machine, 3600) // backbone: blocks the whole machine
		for k := int64(0); k < 3; k++ {
			add(t0+60+60*k, 16, 1800) // class A
		}
		for k := int64(0); k < 3; k++ {
			add(t0+240+60*k, 8, 1500) // class B
		}
	}
	return &job.Trace{Jobs: jobs, Processors: machine,
		Note: "benchkit recurring-submission fixture"}
}

// reuseSimResult runs one ILP-driven simulation of the recurring trace
// and reports the reuse statistics, for both the benchmark body and the
// trajectory row.
func reuseSimResult(reuse bool) (*sim.Result, error) {
	tr := RecurringTrace(10)
	ilp := &sim.ILPConfig{
		ILPConfig: plan.ILPConfig{
			Pipe: solvepipe.Config{
				Budget:     2 * time.Second,
				Retries:    1,
				FixedScale: stepSampleScale,
				Limit:      ilpsched.SizeLimit{MaxVariables: 250000},
				MIP:        mip.Options{MaxNodes: 3000},
			},
			StepCacheOff: !reuse,
			ReuseOff:     !reuse,
		},
		Fallback: true,
	}
	cfg := sim.DefaultConfig()
	cfg.ILP = ilp
	sched := dynp.MustNew(policy.Standard(), metrics.SLDwA{}, dynp.AdvancedDecider{})
	s, err := sim.New(tr, sched, cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// BenchSimCrossStepReuse returns the end-to-end benchmark body: one
// complete ILP-driven CTC simulation per iteration, with cross-step
// reuse (solution cache + previous-schedule incumbent) on or off.
func BenchSimCrossStepReuse(reuse bool) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := reuseSimResult(reuse)
			if err != nil {
				b.Fatal(err)
			}
			if res.ILPSteps == 0 {
				b.Fatal("no ILP steps ran")
			}
		}
	}
}

// CrossStepReuseStats runs one instrumented ILP-driven simulation with
// reuse on and returns the hit/reuse counts for the trajectory.
func CrossStepReuseStats() (ilpSteps, cacheHits, incumbentReuses, fallbacks int, err error) {
	res, err := reuseSimResult(true)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return res.ILPSteps, res.ILPCacheHits, res.ILPReusedIncumbents, res.ILPFallbacks, nil
}
