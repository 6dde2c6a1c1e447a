package benchkit

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/ilpsched"
	"repro/internal/lp"
)

// StepLP returns the presolved time-indexed model of a sampled step as a
// plain LP together with its integer columns. It goes through the CPLEX
// LP file format, the model's export of its matrix.
func StepLP(step *StepInstance) (*lp.Problem, []int, error) {
	m, _, err := ilpsched.BuildPresolved(step.Inst, stepSampleScale,
		ilpsched.PresolveOptions{Seeds: step.Seeds})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := m.WriteLP(&buf); err != nil {
		return nil, nil, err
	}
	return lp.ReadLP(&buf)
}

// nodeResolveFixture returns the first sampled CTC step whose root
// relaxation is fractional, with the bounds of its down child (the most
// fractional column capped at its floor) applied, and the root's optimal
// basis.
func nodeResolveFixture() (*lp.Problem, *lp.Basis, error) {
	steps, err := SampledCTCSteps(4)
	if err != nil {
		return nil, nil, err
	}
	for _, step := range steps {
		p, ints, err := StepLP(step)
		if err != nil {
			return nil, nil, err
		}
		root, err := p.Solve(lp.Options{})
		if err != nil {
			return nil, nil, err
		}
		if root.Status != lp.Optimal {
			continue
		}
		col, dist := -1, 1e-6
		for _, j := range ints {
			f := root.X[j] - math.Floor(root.X[j])
			if d := math.Min(f, 1-f); d > dist {
				col, dist = j, d
			}
		}
		if col < 0 {
			continue
		}
		lo, _ := p.Bounds(col)
		p.SetBounds(col, lo, math.Floor(root.X[col]))
		return p, root.Basis, nil
	}
	return nil, nil, fmt.Errorf("benchkit: no sampled CTC step has a fractional root relaxation")
}

// BenchNodeResolve measures one branch-and-bound node re-solve: the down
// child of a sampled CTC step's root relaxation, warm-started from the
// root's optimal basis on one reused LP workspace, as a search worker
// does. allocs/op is what a node re-solve allocates, its Result included.
func BenchNodeResolve(b *testing.B) {
	p, basis, err := nodeResolveFixture()
	if err != nil {
		b.Fatal(err)
	}
	var ws lp.Workspace
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ws.SolveFrom(ctx, p, basis, lp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.WarmStarted {
			b.Fatal("node re-solve fell back to a cold start")
		}
	}
}
