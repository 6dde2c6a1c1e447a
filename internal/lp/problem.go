// Package lp is a self-contained linear programming solver: a revised
// simplex method with bounded variables, a two-phase (artificial variable)
// primal algorithm and a dual simplex for warm starts. It is the LP engine
// underneath the branch-and-bound MILP solver (package mip) that stands in
// for ILOG CPLEX in this reproduction.
//
// Problems are stated as
//
//	minimize    c^T x
//	subject to  a_i^T x  {<=, =, >=}  b_i   for every row i
//	            lo_j <= x_j <= hi_j         for every column j
//
// Internally every row gains a slack column so the system becomes
// A x = b with bounds on all columns; the simplex operates on that
// computational form.
package lp

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Inf is the bound value representing +infinity.
var Inf = math.Inf(1)

// Sense is the relation of a constraint row.
type Sense int

const (
	LE Sense = iota // a^T x <= b
	GE              // a^T x >= b
	EQ              // a^T x == b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "=="
	}
}

type nz struct {
	row int
	val float64
}

// Problem is a mutable LP instance. Columns and rows may be added in any
// order; coefficients reference both by index.
type Problem struct {
	cost  []float64
	lo    []float64
	hi    []float64
	names []string

	cols  [][]nz
	sense []Sense
	rhs   []float64

	// dirty marks columns as possibly containing unsorted or duplicate
	// entries; coalesce() clears it.
	dirty bool

	// rowA is the row-major copy of the coalesced matrix that the simplex
	// builds its pivot rows from. It is built once per matrix, dropped by
	// every edit of the matrix shape or coefficients, and shared read-only
	// by clones.
	rowA *rowMajor

	// arena is a single backing store for column entries, carved into
	// per-column slices by ReserveColumn so that bulk model builds (the
	// time-indexed scheduling formulation) perform one allocation for all
	// coefficients instead of one append chain per column.
	arena    []nz
	arenaOff int
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVariable appends a column with the given bounds and objective cost
// and returns its index. Use lp.Inf / -lp.Inf for free directions.
func (p *Problem) AddVariable(lo, hi, cost float64, name string) int {
	p.cost = append(p.cost, cost)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.names = append(p.names, name)
	p.cols = append(p.cols, nil)
	p.rowA = nil
	return len(p.cost) - 1
}

// AddConstraint appends an (initially empty) row and returns its index.
func (p *Problem) AddConstraint(s Sense, rhs float64) int {
	p.sense = append(p.sense, s)
	p.rhs = append(p.rhs, rhs)
	p.rowA = nil
	return len(p.rhs) - 1
}

// SetCoeff adds v to the coefficient of column col in row row (duplicate
// calls accumulate). It panics on out-of-range indices.
func (p *Problem) SetCoeff(row, col int, v float64) {
	if row < 0 || row >= len(p.rhs) {
		panic(fmt.Sprintf("lp: row %d out of range [0,%d)", row, len(p.rhs)))
	}
	if col < 0 || col >= len(p.cols) {
		panic(fmt.Sprintf("lp: col %d out of range [0,%d)", col, len(p.cols)))
	}
	if v == 0 {
		return
	}
	p.cols[col] = append(p.cols[col], nz{row: row, val: v})
	p.dirty = true
	p.rowA = nil
}

// SetBounds replaces the bounds of column col (used by branch and bound).
func (p *Problem) SetBounds(col int, lo, hi float64) {
	p.lo[col] = lo
	p.hi[col] = hi
}

// SetCost replaces the objective coefficient of column col.
func (p *Problem) SetCost(col int, c float64) { p.cost[col] = c }

// Bounds returns the bounds of column col.
func (p *Problem) Bounds(col int) (lo, hi float64) { return p.lo[col], p.hi[col] }

// Cost returns the objective coefficient of column col.
func (p *Problem) Cost(col int) float64 { return p.cost[col] }

// Name returns the name of column col.
func (p *Problem) Name(col int) string { return p.names[col] }

// NumVariables returns the number of structural columns.
func (p *Problem) NumVariables() int { return len(p.cost) }

// NumConstraints returns the number of rows.
func (p *Problem) NumConstraints() int { return len(p.rhs) }

// Row returns the sense and right-hand side of row i.
func (p *Problem) Row(i int) (Sense, float64) { return p.sense[i], p.rhs[i] }

// AccumulateRows adds A*x into act (len NumConstraints). Duplicate
// coefficient entries are coalesced first.
func (p *Problem) AccumulateRows(x []float64, act []float64) {
	p.coalesce()
	for j, col := range p.cols {
		if x[j] == 0 {
			continue
		}
		for _, e := range col {
			act[e.row] += e.val * x[j]
		}
	}
}

// VisitColumn calls f for every nonzero entry of column j (after
// coalescing duplicates).
func (p *Problem) VisitColumn(j int, f func(row int, val float64)) {
	p.coalesce()
	for _, e := range p.cols[j] {
		f(e.row, e.val)
	}
}

// NumNonZeros returns the number of structural matrix entries (after
// coalescing duplicates).
func (p *Problem) NumNonZeros() int {
	n := 0
	for _, c := range p.cols {
		n += len(c)
	}
	return n
}

// Validate checks bounds sanity (lo <= hi everywhere, no NaN anywhere).
func (p *Problem) Validate() error {
	for j := range p.cost {
		if math.IsNaN(p.cost[j]) || math.IsNaN(p.lo[j]) || math.IsNaN(p.hi[j]) {
			return fmt.Errorf("lp: NaN in column %d", j)
		}
		if p.lo[j] > p.hi[j] {
			return fmt.Errorf("lp: column %d has lo %g > hi %g", j, p.lo[j], p.hi[j])
		}
	}
	for i, b := range p.rhs {
		if math.IsNaN(b) {
			return fmt.Errorf("lp: NaN rhs in row %d", i)
		}
	}
	return nil
}

// Grow preallocates capacity for cols more columns, rows more rows and an
// entry arena holding entries matrix coefficients (see ReserveColumn).
// It is purely an optimization hint for bulk builders; zero values are
// ignored.
func (p *Problem) Grow(cols, rows, entries int) {
	if cols > 0 {
		p.cost = slices.Grow(p.cost, cols)
		p.lo = slices.Grow(p.lo, cols)
		p.hi = slices.Grow(p.hi, cols)
		p.names = slices.Grow(p.names, cols)
		p.cols = slices.Grow(p.cols, cols)
	}
	if rows > 0 {
		p.sense = slices.Grow(p.sense, rows)
		p.rhs = slices.Grow(p.rhs, rows)
	}
	if entries > 0 {
		p.arena = make([]nz, entries)
		p.arenaOff = 0
	}
}

// ReserveColumn points the (currently empty) column col at an exclusive
// slice of the Grow arena with capacity for n entries, so its subsequent
// SetCoeff appends stay inside the arena. The three-index slice caps each
// reservation, so an underestimated n safely falls back to ordinary
// append reallocation instead of clobbering a neighbor. A no-op when the
// column is nonempty, n is not positive, or the arena is exhausted.
func (p *Problem) ReserveColumn(col, n int) {
	if len(p.cols[col]) != 0 || n <= 0 || p.arenaOff+n > len(p.arena) {
		return
	}
	p.cols[col] = p.arena[p.arenaOff : p.arenaOff : p.arenaOff+n]
	p.arenaOff += n
}

// Freeze coalesces any pending coefficient edits and builds the
// row-major copy now, leaving the problem safe for concurrent read-only
// use (the parallel branch-and-bound evaluates candidates against the
// shared root problem while workers solve on clones; without Freeze the
// first concurrent reader would race on the lazy coalesce).
func (p *Problem) Freeze() { p.rows() }

// coalesce sorts each column by row and merges duplicate and cancelled
// entries. It is a no-op when nothing changed since the last call, and
// it rewrites only the columns that need it: a clone shares its parent's
// columns, and the copy-on-write discipline of Clone relies on untouched
// columns never being written.
func (p *Problem) coalesce() {
	if !p.dirty {
		return
	}
	p.dirty = false
	for j, col := range p.cols {
		if columnCanonical(col) {
			continue
		}
		sort.Slice(col, func(a, b int) bool { return col[a].row < col[b].row })
		out := col[:0]
		for _, e := range col {
			if len(out) > 0 && out[len(out)-1].row == e.row {
				out[len(out)-1].val += e.val
			} else {
				out = append(out, e)
			}
		}
		// Drop entries that cancelled to zero.
		final := out[:0]
		for _, e := range out {
			if e.val != 0 {
				final = append(final, e)
			}
		}
		p.cols[j] = final
	}
}

// columnCanonical reports whether col is already strictly row-sorted
// with no zero entries, i.e. coalesce would leave it unchanged.
func columnCanonical(col []nz) bool {
	for k, e := range col {
		if e.val == 0 || (k > 0 && col[k-1].row >= e.row) {
			return false
		}
	}
	return true
}

// rowMajor is a compressed-row copy of the structural matrix: row i holds
// (col[k], val[k]) for k in [start[i], start[i+1]).
type rowMajor struct {
	start []int32
	col   []int32
	val   []float64
}

// rows returns the row-major copy of the coalesced matrix, building it on
// first use after an edit.
func (p *Problem) rows() *rowMajor {
	p.coalesce()
	if p.rowA != nil {
		return p.rowA
	}
	m := len(p.rhs)
	ra := &rowMajor{start: make([]int32, m+1)}
	for _, col := range p.cols {
		for _, e := range col {
			ra.start[e.row+1]++
		}
	}
	for i := 0; i < m; i++ {
		ra.start[i+1] += ra.start[i]
	}
	nnz := ra.start[m]
	ra.col = make([]int32, nnz)
	ra.val = make([]float64, nnz)
	next := append([]int32(nil), ra.start[:m]...)
	for j, col := range p.cols {
		for _, e := range col {
			k := next[e.row]
			ra.col[k], ra.val[k] = int32(j), e.val
			next[e.row]++
		}
	}
	p.rowA = ra
	return ra
}

// Clone returns an independent copy of the problem. The coefficient
// storage and the row-major copy are shared with p, copy-on-write: every
// shared column is capped at its length in both problems, so a SetCoeff
// on either one reallocates that column instead of writing into storage
// the other still reads, and coalesce never rewrites a column no edit has
// touched. Cloning therefore costs O(columns), not O(nonzeros), which
// matters for the per-worker clones of parallel branch and bound. Once p
// is frozen and its columns capped, Clone only reads p.
func (p *Problem) Clone() *Problem {
	ra := p.rows() // coalesce first: clones must start clean
	cp := &Problem{
		cost:  append([]float64(nil), p.cost...),
		lo:    append([]float64(nil), p.lo...),
		hi:    append([]float64(nil), p.hi...),
		names: append([]string(nil), p.names...),
		sense: append([]Sense(nil), p.sense...),
		rhs:   append([]float64(nil), p.rhs...),
		cols:  make([][]nz, len(p.cols)),
		rowA:  ra,
	}
	for j, c := range p.cols {
		c = c[:len(c):len(c)]
		if cap(p.cols[j]) != len(c) {
			p.cols[j] = c
		}
		cp.cols[j] = c
	}
	return cp
}
