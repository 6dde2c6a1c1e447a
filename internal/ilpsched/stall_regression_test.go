package ilpsched

import (
	"testing"

	"repro/internal/mip"
	"repro/internal/stats"
)

// stallSeed is a TestPostsolveXRoundTrip draw whose reduced model (599
// columns, 152 rows) once stalled a warm dual simplex at a node LP: the
// node hit the LP iteration cap, branch and bound dropped it, and the
// solve ended Feasible with a zero gap it had never proved.
const stallSeed uint64 = 0x3a650be8271ab7ce

func TestStallSeedReducedModelProvesOptimal(t *testing.T) {
	for _, workers := range []int{1, 2} {
		i, seeds := randomInstance(stats.NewRand(stallSeed))
		if i == nil {
			t.Fatal("seed no longer yields an instance")
		}
		red, _, err := BuildPresolved(i, 1, PresolveOptions{Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := red.Solve(mip.Options{MaxNodes: 30000, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		r := sol.MIP
		t.Logf("workers=%d: status %v objective %g bound %g nodes %d LP iterations %d (model %d cols, %d rows)",
			workers, r.Status, r.Objective, r.BestBound, r.Nodes, r.LPIters, red.prob.NumVariables(), red.NumConstraints())
		if r.Status != mip.Optimal || r.BestBound != r.Objective {
			t.Errorf("workers=%d: status %v, objective %g, bound %g; want optimal with bound = objective",
				workers, r.Status, r.Objective, r.BestBound)
		}
	}
}
