package lp_test

import (
	"fmt"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/lp"
)

// Sparse and dense bases agree on the node LPs of branch-and-bound trees
// over presolved time-indexed models of sampled CTC self-tuning steps,
// the relaxations the paper's per-step solve spends its time in.
func TestSparseDenseAgreeCTCNodeLPs(t *testing.T) {
	steps, err := benchkit.SampledCTCSteps(4)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for k, step := range steps {
		p, ints, err := benchkit.StepLP(step)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		checked += lp.CheckNodeLPsBothBases(t, p, ints, 25, fmt.Sprintf("step %d", k))
	}
	if checked == 0 {
		t.Fatal("no node LPs harvested from the sampled CTC steps")
	}
	t.Logf("checked %d CTC node LPs", checked)
}
