package lp

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

// The differential harness: every LP must solve identically under the
// sparse LU basis (the default) and the dense explicit-inverse fallback
// (Options.DenseBasis). Status must match exactly; optimal objectives
// must agree to 1e-9 relative; both solutions must pass the full KKT
// certificate. This is the acceptance gate for the sparse core — any
// divergence is a factorization or update bug, never a tolerance issue.

// solveBothBases solves p in both basis modes and cross-checks them,
// returning the two results (sparse first).
func solveBothBases(t *testing.T, p *Problem, tag string) (*Result, *Result) {
	t.Helper()
	sparse, err := p.Solve(Options{})
	if err != nil {
		t.Fatalf("%s: sparse solve: %v", tag, err)
	}
	dense, err := p.Solve(Options{DenseBasis: true})
	if err != nil {
		t.Fatalf("%s: dense solve: %v", tag, err)
	}
	if sparse.Status != dense.Status {
		t.Fatalf("%s: status sparse %v, dense %v", tag, sparse.Status, dense.Status)
	}
	if sparse.Status == Optimal {
		if d := math.Abs(sparse.Objective - dense.Objective); d > 1e-9*(1+math.Abs(dense.Objective)) {
			t.Fatalf("%s: objective sparse %.15g, dense %.15g (|Δ| = %g)",
				tag, sparse.Objective, dense.Objective, d)
		}
		checkKKT(t, p, sparse)
		checkKKT(t, p, dense)
		if sparse.Basis == nil || dense.Basis == nil {
			t.Fatalf("%s: optimal result without a basis", tag)
		}
	}
	return sparse, dense
}

// Property: sparse and dense bases agree on random feasible LPs.
func TestSparseDenseAgreeRandomLPs(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		r := stats.NewRand(seed)
		p := randomFeasibleLP(r)
		solveBothBases(t, p, fmt.Sprintf("seed=%d", seed))
	}
}

// Random LPs without the feasibility guarantee: statuses (including
// Infeasible/Unbounded) must still match between the two bases.
func TestSparseDenseAgreeRandomStatuses(t *testing.T) {
	for seed := uint64(500); seed < 620; seed++ {
		r := stats.NewRand(seed)
		p := NewProblem()
		n := r.Intn(5) + 1
		m := r.Intn(5) + 1
		for j := 0; j < n; j++ {
			hi := Inf
			if r.Intn(2) == 0 {
				hi = float64(r.Intn(9) + 1)
			}
			p.AddVariable(0, hi, float64(r.Intn(11)-5), "v")
		}
		for i := 0; i < m; i++ {
			var row int
			switch r.Intn(3) {
			case 0:
				row = p.AddConstraint(LE, float64(r.Intn(13)-6))
			case 1:
				row = p.AddConstraint(GE, float64(r.Intn(13)-6))
			default:
				row = p.AddConstraint(EQ, float64(r.Intn(13)-6))
			}
			for j := 0; j < n; j++ {
				p.SetCoeff(row, j, float64(r.Intn(7)-3))
			}
		}
		solveBothBases(t, p, fmt.Sprintf("status-seed=%d", seed))
	}
}

// Every MPS/LP fixture under testdata must solve to Optimal and agree
// across both basis representations.
func TestSparseDenseAgreeFixtures(t *testing.T) {
	mps, err := filepath.Glob("testdata/*.mps")
	if err != nil {
		t.Fatal(err)
	}
	lps, err := filepath.Glob("testdata/*.lp")
	if err != nil {
		t.Fatal(err)
	}
	files := append(mps, lps...)
	if len(files) < 4 {
		t.Fatalf("expected at least 4 fixtures under testdata, found %v", files)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var p *Problem
		if strings.HasSuffix(path, ".mps") {
			p, _, err = ReadMPS(f)
		} else {
			p, _, err = ReadLP(f)
		}
		f.Close()
		if err != nil {
			t.Fatalf("%s: parse: %v", path, err)
		}
		sparse, _ := solveBothBases(t, p, path)
		if sparse.Status != Optimal {
			t.Fatalf("%s: status %v, want optimal (fixtures are all feasible bounded)", path, sparse.Status)
		}
	}
}

// Warm starts after a bound change (the branch-and-bound pattern) must
// also agree across bases, exercising the dual simplex and the
// Forrest–Tomlin update path rather than just cold phase-1/phase-2.
func TestSparseDenseAgreeWarmStarts(t *testing.T) {
	for seed := uint64(900); seed < 960; seed++ {
		r := stats.NewRand(seed)
		p := randomFeasibleLP(r)
		res, err := p.Solve(Options{})
		if err != nil || res.Status != Optimal {
			continue
		}
		// Tighten the bound of the first fractional-ish variable to its
		// floor, as a branching step would.
		j := int(seed) % p.NumVariables()
		lo, _ := p.Bounds(j)
		p.SetBounds(j, lo, lo)
		warmSparse, err := p.SolveFrom(res.Basis, Options{})
		if err != nil {
			t.Fatalf("seed %d: warm sparse: %v", seed, err)
		}
		warmDense, err := p.SolveFrom(res.Basis, Options{DenseBasis: true})
		if err != nil {
			t.Fatalf("seed %d: warm dense: %v", seed, err)
		}
		if warmSparse.Status != warmDense.Status {
			t.Fatalf("seed %d: warm status sparse %v, dense %v", seed, warmSparse.Status, warmDense.Status)
		}
		if warmSparse.Status == Optimal {
			if d := math.Abs(warmSparse.Objective - warmDense.Objective); d > 1e-9*(1+math.Abs(warmDense.Objective)) {
				t.Fatalf("seed %d: warm objective sparse %.15g, dense %.15g",
					seed, warmSparse.Objective, warmDense.Objective)
			}
			checkKKT(t, p, warmSparse)
		}
	}
}

// nodeLP is one branch-and-bound node relaxation: the column bounds of
// its path and its parent's optimal basis, the warm start a search hands
// the simplex.
type nodeLP struct {
	lo, hi []float64
	basis  *Basis
}

// harvestNodeLPs walks a depth-first branch-and-bound tree over p (most
// fractional integer column, down child first, warm-started from the
// parent) and returns up to maxNodes of its node relaxations below the
// root. The root-LP harness above never sees these warm re-solves, the
// ones a search performs thousands of times.
func harvestNodeLPs(t *testing.T, p *Problem, ints []int, maxNodes int) []nodeLP {
	t.Helper()
	stack := []nodeLP{{lo: append([]float64(nil), p.lo...), hi: append([]float64(nil), p.hi...)}}
	var out []nodeLP
	for len(stack) > 0 && len(out) < maxNodes {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nd.basis != nil {
			out = append(out, nd)
		}
		res, err := nd.problem(p).SolveFrom(nd.basis, Options{})
		if err != nil {
			t.Fatalf("harvest: %v", err)
		}
		if res.Status != Optimal {
			continue
		}
		col, dist := -1, 1e-6
		for _, j := range ints {
			f := res.X[j] - math.Floor(res.X[j])
			if d := math.Min(f, 1-f); d > dist {
				col, dist = j, d
			}
		}
		if col < 0 {
			continue
		}
		v := res.X[col]
		up := nodeLP{lo: append([]float64(nil), nd.lo...), hi: nd.hi, basis: res.Basis}
		up.lo[col] = math.Ceil(v)
		down := nodeLP{lo: nd.lo, hi: append([]float64(nil), nd.hi...), basis: res.Basis}
		down.hi[col] = math.Floor(v)
		stack = append(stack, up, down)
	}
	return out
}

// problem returns a clone of p with the node's bounds.
func (nd nodeLP) problem(p *Problem) *Problem {
	q := p.Clone()
	for j := range nd.lo {
		q.SetBounds(j, nd.lo[j], nd.hi[j])
	}
	return q
}

// checkNodeLPsBothBases warm-solves every node LP from its parent basis
// under the sparse and the dense basis and requires the same status, the
// same optimal objective (1e-9 relative, matching a cold solve) and a
// KKT certificate for both solutions. It returns the number of node LPs
// checked.
func checkNodeLPsBothBases(t *testing.T, p *Problem, ints []int, maxNodes int, tag string) int {
	t.Helper()
	nodes := harvestNodeLPs(t, p, ints, maxNodes)
	for k, nd := range nodes {
		q := nd.problem(p)
		sparse, err := q.SolveFrom(nd.basis, Options{})
		if err != nil {
			t.Fatalf("%s node %d: warm sparse: %v", tag, k, err)
		}
		dense, err := q.SolveFrom(nd.basis, Options{DenseBasis: true})
		if err != nil {
			t.Fatalf("%s node %d: warm dense: %v", tag, k, err)
		}
		cold, err := q.Solve(Options{})
		if err != nil {
			t.Fatalf("%s node %d: cold sparse: %v", tag, k, err)
		}
		if sparse.Status != dense.Status || sparse.Status != cold.Status {
			t.Fatalf("%s node %d: status warm sparse %v, warm dense %v, cold %v",
				tag, k, sparse.Status, dense.Status, cold.Status)
		}
		if sparse.Status != Optimal {
			continue
		}
		for _, other := range []*Result{dense, cold} {
			if d := math.Abs(sparse.Objective - other.Objective); d > 1e-9*(1+math.Abs(other.Objective)) {
				t.Fatalf("%s node %d: objective warm sparse %.15g vs %.15g (|Δ| = %g)",
					tag, k, sparse.Objective, other.Objective, d)
			}
		}
		checkKKT(t, q, sparse)
		checkKKT(t, q, dense)
	}
	return len(nodes)
}

// Sparse and dense bases agree on the node LPs of branch-and-bound trees
// over random integer programs (every column of randomFeasibleLP has
// integral bounds, so all are branched on).
func TestSparseDenseAgreeRandomNodeLPs(t *testing.T) {
	checked := 0
	for seed := uint64(1200); seed < 1300; seed++ {
		p := randomFeasibleLP(stats.NewRand(seed))
		ints := make([]int, p.NumVariables())
		for j := range ints {
			ints[j] = j
		}
		checked += checkNodeLPsBothBases(t, p, ints, 20, fmt.Sprintf("seed=%d", seed))
	}
	if checked < 100 {
		t.Fatalf("only %d node LPs harvested", checked)
	}
}

// Hyper-sparsity: an FTRAN whose right-hand side touches one row of a
// slack-dominated (near-identity) basis must skip the untouched columns
// entirely — the touch count stays O(1) while m is large.
func TestFTRANHyperSparseSkips(t *testing.T) {
	const m = 120
	p := NewProblem()
	x := p.AddVariable(0, 1, -1, "x")
	for i := 0; i < m; i++ {
		r := p.AddConstraint(LE, float64(i+1))
		if i == 0 {
			p.SetCoeff(r, x, 1)
		}
	}
	s := newSimplex(p, Options{}.withDefaults(), new(Workspace))
	defer s.release()
	s.coldBasis() // all-slack basis: B = I
	w := make([]float64, s.m)
	before := s.lu.touches
	s.ftran(x, w) // column with a single nonzero in row 0
	delta := s.lu.touches - before
	if delta > 3 {
		t.Fatalf("single-nonzero FTRAN touched %d etas/pivots on an identity basis of size %d; hyper-sparse skip broken", delta, m)
	}
	if w[0] != 1 {
		t.Fatalf("ftran result w[0] = %g, want 1", w[0])
	}
	for i := 1; i < s.m; i++ {
		if w[i] != 0 {
			t.Fatalf("ftran result w[%d] = %g, want 0", i, w[i])
		}
	}
}

// The dense fallback's adaptive refactorization: a corrupted basis
// inverse must show up in basisDrift and a refactorize must restore it
// below the trigger tolerance.
func TestDenseDriftDetectsCorruption(t *testing.T) {
	r := stats.NewRand(77)
	p := randomFeasibleLP(r)
	opt := Options{DenseBasis: true}.withDefaults()
	res, err := p.Solve(opt)
	if err != nil || res.Status != Optimal {
		t.Skipf("fixture did not solve: %v %v", res, err)
	}
	s := newSimplex(p, opt, new(Workspace))
	defer s.release()
	copy(s.stat, res.Basis.stat)
	copy(s.basis, res.Basis.rows)
	if !s.factorize() {
		t.Fatal("optimal basis declared singular")
	}
	if d := s.basisDrift(); d > driftRefactorTol {
		t.Fatalf("fresh factorization drifts %g > %g", d, driftRefactorTol)
	}
	// Corrupt the represented solution the way accumulated eta roundoff
	// would: perturb a basic value. The drift check must notice.
	s.xB[0] += 1e-3
	if d := s.basisDrift(); d <= driftRefactorTol {
		t.Fatalf("corrupted basis drifts only %g, trigger would not fire", d)
	}
	// factorize() recomputes xB from the basis: drift returns to zero.
	if !s.factorize() {
		t.Fatal("refactorize failed")
	}
	if d := s.basisDrift(); d > driftRefactorTol {
		t.Fatalf("post-refactorize drift %g > %g", d, driftRefactorTol)
	}
}

// The dual simplex's numerical-breakdown branch ("refactorize and retry
// once") is unreachable organically on healthy arithmetic, so the test
// injects a zeroed pivot element through dualBreakdownHook and checks
// the solve recovers to the same optimum with an extra refactorization.
func TestDualBreakdownRefactorizeRetry(t *testing.T) {
	for _, dense := range []bool{false, true} {
		p := NewProblem()
		x := p.AddVariable(0, 1, -3, "x")
		y := p.AddVariable(0, 1, -2, "y")
		z := p.AddVariable(0, 1, -1, "z")
		row := p.AddConstraint(LE, 1.5)
		p.SetCoeff(row, x, 1)
		p.SetCoeff(row, y, 1)
		p.SetCoeff(row, z, 1)
		opt := Options{DenseBasis: dense}
		res, err := p.Solve(opt)
		if err != nil || res.Status != Optimal {
			t.Fatalf("dense=%v: base solve %v %v", dense, res.Status, err)
		}
		p.SetBounds(x, 0, 0) // branch: forces the dual repair path
		cold, err := p.Solve(opt)
		if err != nil || cold.Status != Optimal {
			t.Fatalf("dense=%v: cold re-solve %v %v", dense, cold.Status, err)
		}

		fired := 0
		dualBreakdownHook = func(s *simplex, w []float64, r int) {
			if fired == 0 {
				w[r] = 0 // simulate a numerically annihilated pivot element
			}
			fired++
		}
		warm, err := p.SolveFrom(res.Basis, opt)
		dualBreakdownHook = nil
		if err != nil {
			t.Fatalf("dense=%v: warm solve: %v", dense, err)
		}
		if fired == 0 {
			t.Fatalf("dense=%v: dual simplex never ran; the fixture no longer exercises the breakdown branch", dense)
		}
		if fired < 2 {
			t.Fatalf("dense=%v: breakdown did not retry (hook fired %d times)", dense, fired)
		}
		if warm.Status != Optimal {
			t.Fatalf("dense=%v: status after injected breakdown %v, want optimal", dense, warm.Status)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
			t.Fatalf("dense=%v: objective %g after breakdown, want %g", dense, warm.Objective, cold.Objective)
		}
		if warm.Refactorizations < 2 {
			t.Fatalf("dense=%v: %d refactorizations, want >= 2 (initial + breakdown retry)", dense, warm.Refactorizations)
		}
		checkKKT(t, p, warm)
	}
}
