package lp

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// The maintained reduced costs must equal a fresh c − yᵀA after every
// pivot, in both simplex loops (cold two-phase solves run the primal,
// warm re-solves after a bound change the dual) and both basis modes.
func TestMaintainedReducedCostsMatchFreshPricing(t *testing.T) {
	var pivots, worst int
	var worstErr float64
	pivotHook = func(s *simplex) {
		pivots++
		y := make([]float64, s.m)
		s.duals(y)
		for j := 0; j < s.ncols(); j++ {
			fresh := 0.0
			if s.stat[j] != isBasic {
				fresh = s.cost[j]
				for _, e := range s.acols[j] {
					fresh -= y[e.row] * e.val
				}
			}
			if d := math.Abs(s.d[j] - fresh); d > 1e-7*(1+math.Abs(fresh)) {
				t.Errorf("iteration %d column %d: maintained d %g, fresh %g", s.iters, j, s.d[j], fresh)
			} else if d > worstErr {
				worstErr, worst = d, j
			}
		}
	}
	defer func() { pivotHook = nil }()
	for _, dense := range []bool{false, true} {
		for seed := uint64(0); seed < 150; seed++ {
			r := stats.NewRand(seed)
			p := randomFeasibleLP(r)
			res, err := p.Solve(Options{DenseBasis: dense})
			if err != nil || res.Status != Optimal {
				continue
			}
			j := r.Intn(p.NumVariables())
			lo, hi := p.Bounds(j)
			p.SetBounds(j, lo, lo+(hi-lo)*r.Float64()/2)
			if _, err := p.SolveFrom(res.Basis, Options{DenseBasis: dense}); err != nil {
				t.Fatal(err)
			}
			if t.Failed() {
				t.Fatalf("dense=%v seed %d: maintained reduced costs drifted", dense, seed)
			}
		}
	}
	if pivots < 500 {
		t.Fatalf("only %d pivots observed", pivots)
	}
	t.Logf("%d pivots checked, largest deviation %g (column %d)", pivots, worstErr, worst)
}

// A warm attempt abandoned for a cold solve still counts its iterations,
// while each attempt keeps its own MaxIters budget.
func TestColdFallbackCountsAbandonedIterations(t *testing.T) {
	found := 0
	for seed := uint64(0); seed < 400 && found < 5; seed++ {
		r := stats.NewRand(seed)
		p := randomFeasibleLP(r)
		res, err := p.Solve(Options{})
		if err != nil || res.Status != Optimal {
			continue
		}
		for j := 0; j < p.NumVariables(); j++ {
			lo, hi := p.Bounds(j)
			p.SetBounds(j, hi, hi)
			full, err := p.SolveFrom(res.Basis, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !full.WarmStarted || full.Iterations < 3 {
				p.SetBounds(j, lo, hi)
				continue
			}
			// The warm attempt needs more than one iteration: with a budget
			// of one it is abandoned after one pivot, and the cold attempt
			// gets a budget of one of its own.
			lim, err := p.SolveFrom(res.Basis, Options{MaxIters: 1})
			if err != nil {
				t.Fatal(err)
			}
			if lim.WarmStarted {
				t.Fatalf("seed %d: a 1-iteration budget finished a %d-iteration warm solve",
					seed, full.Iterations)
			}
			if lim.Iterations != 2 {
				t.Errorf("seed %d: iterations = %d, want 2 (1 abandoned warm + 1 cold)", seed, lim.Iterations)
			}
			found++
			break
		}
	}
	if found == 0 {
		t.Fatal("no warm solve long enough to abandon")
	}
}

// Clones share column storage copy-on-write: an edit on either side,
// including one that lands in spare arena capacity, never shows on the
// other, and the row-major copy follows each problem's own matrix.
func TestCloneSharesColumnsCopyOnWrite(t *testing.T) {
	p := NewProblem()
	p.Grow(2, 2, 8)
	x := p.AddVariable(0, 4, -1, "x")
	y := p.AddVariable(0, 4, -1, "y")
	r0 := p.AddConstraint(LE, 3)
	r1 := p.AddConstraint(LE, 5)
	p.ReserveColumn(x, 4) // spare capacity behind x's entries
	p.SetCoeff(r1, x, 1)
	p.SetCoeff(r0, y, 1)
	c := p.Clone()
	p.SetCoeff(r0, x, 7) // would land in x's spare capacity, then be sorted
	c.SetCoeff(r1, y, 2)
	rowOf := func(q *Problem, col int) map[int]float64 {
		got := map[int]float64{}
		q.VisitColumn(col, func(row int, val float64) { got[row] = val })
		return got
	}
	if got := rowOf(p, x); got[r0] != 7 || got[r1] != 1 || len(got) != 2 {
		t.Errorf("original column x = %v, want {0:7 1:1}", got)
	}
	if got := rowOf(c, x); got[r1] != 1 || len(got) != 1 {
		t.Errorf("clone column x = %v, want {1:1}", got)
	}
	if got := rowOf(p, y); got[r0] != 1 || len(got) != 1 {
		t.Errorf("original column y = %v, want {0:1}", got)
	}
	if got := rowOf(c, y); got[r0] != 1 || got[r1] != 2 || len(got) != 2 {
		t.Errorf("clone column y = %v, want {0:1 1:2}", got)
	}
	for _, q := range []*Problem{p, c} {
		res := solveOrDie(t, q)
		checkKKT(t, q, res)
	}
}

// Workers solve clones of one frozen problem concurrently while the
// original is read: the shared columns and row-major copy are read-only.
// Run with -race.
func TestConcurrentCloneSolves(t *testing.T) {
	r := stats.NewRand(77)
	var p *Problem
	for p == nil || p.NumVariables() < 4 {
		p = randomFeasibleLP(r)
	}
	p.Freeze()
	clones := make([]*Problem, 4)
	for i := range clones {
		clones[i] = p.Clone()
	}
	want := solveOrDie(t, p).Objective
	errs := make(chan error, len(clones))
	for i, c := range clones {
		go func(i int, c *Problem) {
			var ws Workspace
			for k := 0; k < 20; k++ {
				lo, hi := c.Bounds(i)
				c.SetBounds(i, lo, lo)
				if _, err := ws.Solve(context.Background(), c, Options{}); err != nil {
					errs <- err
					return
				}
				c.SetBounds(i, lo, hi)
				res, err := ws.Solve(context.Background(), c, Options{})
				if err != nil {
					errs <- err
					return
				}
				if math.Abs(res.Objective-want) > 1e-6 {
					errs <- fmt.Errorf("clone %d: objective %g, want %g", i, res.Objective, want)
					return
				}
				act := make([]float64, p.NumConstraints())
				p.AccumulateRows(res.X, act)
			}
			errs <- nil
		}(i, c)
	}
	for range clones {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
