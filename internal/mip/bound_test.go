package mip

import (
	"math"
	"testing"

	"repro/internal/lp"
)

// A relaxation that hits the LP iteration limit leaves its subtree
// unexplored, so a Feasible result must not claim a zero gap: its best
// bound is the dropped node's bound (here the root's, -Inf), not the
// incumbent.
func TestIterationLimitKeepsBoundHonest(t *testing.T) {
	values, weights, cap := hardKnapsack()
	for _, workers := range []int{1, 2} {
		p, ints := knapsack(values, weights, cap)
		res, err := Solve(p, ints, Options{Workers: workers,
			Incumbent: make([]float64, len(ints)), LP: lp.Options{MaxIters: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Feasible {
			t.Fatalf("workers=%d: status %v, want feasible under a 2-iteration LP budget", workers, res.Status)
		}
		if !(res.BestBound < res.Objective) {
			t.Errorf("workers=%d: best bound %g, objective %g: want bound < objective",
				workers, res.BestBound, res.Objective)
		}
	}
}

// The best bound of a Feasible result is the minimum over the incumbent,
// the open nodes and the dropped nodes.
func TestFeasibleBoundIncludesDroppedNodes(t *testing.T) {
	s := &solver{queue: &nodeQueue{{bound: 9}}, dropped: math.Inf(1),
		haveInc: true, incumbentObj: 10}
	if got := s.feasible().BestBound; got != 9 {
		t.Fatalf("bound with one open node = %g, want 9", got)
	}
	s.drop(&node{bound: 7})
	s.drop(&node{bound: 8})
	if got := s.feasible().BestBound; got != 7 {
		t.Fatalf("bound with dropped nodes = %g, want 7", got)
	}
}
