package repro

import (
	"math"
	"testing"

	"repro/internal/ilpsched"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/plan"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"

	"repro/internal/dynp"
)

// TestParallelSolveMatchesSerialOnSampledSteps is the determinism
// acceptance test for the parallel branch and bound: on self-tuning steps
// sampled from an E1-style CTC simulation, the ILP solved with Workers=1
// and Workers=4 must prove the same optimal objective. The parallel pool
// explores the tree in a nondeterministic order, but the optimum it
// certifies may not depend on that order.
func TestParallelSolveMatchesSerialOnSampledSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("several full MIP solves; skipped with -short")
	}
	tr, err := workload.Generate(workload.CTC(), 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	const maxChecks = 4
	checked := 0
	eligible := 0
	cfg := sim.DefaultConfig()
	cfg.OnStep = func(sc *sim.StepContext) {
		n := len(sc.Waiting)
		if n < 4 || n > 12 || len(sc.Result.Evals) == 0 || checked >= maxChecks {
			return
		}
		eligible++
		if (eligible-1)%2 != 0 { // every other eligible step, like the E1 study's sampling
			return
		}
		inst := plan.Instance(sc.Now, sc.Base, sc.Waiting, plan.Horizon(sc.Result.Evals))
		if inst == nil {
			return
		}
		solve := func(workers int) *mip.Result {
			// Build per solve: identical deterministic models, no shared
			// mutable state between the two runs.
			m, err := ilpsched.Build(inst, 120)
			if err != nil {
				t.Fatalf("step at %d: %v", sc.Now, err)
			}
			sol, err := m.Solve(mip.Options{MaxNodes: 100000, Workers: workers})
			if err != nil {
				t.Fatalf("step at %d (workers=%d): %v", sc.Now, workers, err)
			}
			return sol.MIP
		}
		serial, parallel := solve(1), solve(4)
		if serial.Status != mip.Optimal || parallel.Status != mip.Optimal {
			// A node-limited step proves nothing about determinism — don't
			// compare incumbents of two different truncated searches.
			t.Logf("step at %d: serial %v, parallel %v — skipped (not both optimal)",
				sc.Now, serial.Status, parallel.Status)
			return
		}
		if math.Abs(serial.Objective-parallel.Objective) > 1e-6 {
			t.Errorf("step at %d: serial objective %g, parallel %g",
				sc.Now, serial.Objective, parallel.Objective)
		}
		checked++
	}
	sched := dynp.MustNew(policy.Standard(), metrics.SLDwA{}, dynp.AdvancedDecider{})
	s, err := sim.New(tr, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no sampled step solved to optimality under both worker counts; loosen the sampling")
	}
	t.Logf("compared %d sampled steps", checked)
}
