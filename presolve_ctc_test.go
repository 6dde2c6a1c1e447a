package repro

import (
	"math"
	"testing"

	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/plan"
	"repro/internal/policy"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPresolveMatchesUnreducedOnSampledCTCSteps is the acceptance test
// for the presolve pass on realistic workloads: on self-tuning steps
// sampled from an E1-style CTC simulation, the presolved model must prove
// the same optimal objective as the unreduced one, while removing a
// substantial share of the x_it columns.
func TestPresolveMatchesUnreducedOnSampledCTCSteps(t *testing.T) {
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
	varsBefore, varsAfter := 0, 0
	cfg := sim.DefaultConfig()
	cfg.OnStep = func(sc *sim.StepContext) {
		n := len(sc.Waiting)
		if n < 4 || n > 12 || len(sc.Result.Evals) == 0 || checked >= maxChecks {
			return
		}
		eligible++
		if (eligible-1)%2 != 0 { // every other eligible step, like the E1 sampling
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
		full, err := ilpsched.Build(inst, 120)
		if err != nil {
			t.Fatalf("step at %d: %v", sc.Now, err)
		}
		fullSol, err := full.Solve(mip.Options{MaxNodes: 100000})
		if err != nil {
			t.Fatalf("step at %d: full solve: %v", sc.Now, err)
		}
		red, st, err := ilpsched.BuildPresolved(inst, 120, ilpsched.PresolveOptions{Seeds: seeds})
		if err != nil {
			t.Fatalf("step at %d: presolve: %v", sc.Now, err)
		}
		redSol, err := red.Solve(mip.Options{MaxNodes: 100000})
		if err != nil {
			t.Fatalf("step at %d: presolved solve: %v", sc.Now, err)
		}
		if fullSol.MIP.Status != mip.Optimal || redSol.MIP.Status != mip.Optimal {
			t.Logf("step at %d: full %v, presolved %v — skipped (not both optimal)",
				sc.Now, fullSol.MIP.Status, redSol.MIP.Status)
			return
		}
		if math.Abs(fullSol.Objective-redSol.Objective) > 1e-6 {
			t.Errorf("step at %d: full objective %g, presolved %g (stats %+v)",
				sc.Now, fullSol.Objective, redSol.Objective, st)
		}
		varsBefore += st.VarsBefore
		varsAfter += st.VarsAfter
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
		t.Fatal("no sampled step solved to optimality under both models; loosen the sampling")
	}
	if varsAfter >= varsBefore {
		t.Errorf("presolve removed nothing across %d steps: %d -> %d vars",
			checked, varsBefore, varsAfter)
	}
	t.Logf("compared %d sampled steps: %d -> %d vars (%.1f%% removed)",
		checked, varsBefore, varsAfter,
		100*float64(varsBefore-varsAfter)/float64(varsBefore))
}
