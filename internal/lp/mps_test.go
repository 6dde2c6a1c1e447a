package lp

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/quickcheck"
	"repro/internal/stats"
)

func TestMPSRoundTripSimple(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 6, -1, "x")
	y := p.AddVariable(0, 7, -2, "y")
	z := p.AddVariable(math.Inf(-1), Inf, 0.5, "z")
	r1 := p.AddConstraint(LE, 10)
	p.SetCoeff(r1, x, 1)
	p.SetCoeff(r1, y, 1)
	r2 := p.AddConstraint(GE, -3)
	p.SetCoeff(r2, z, 2)
	r3 := p.AddConstraint(EQ, 4)
	p.SetCoeff(r3, x, 1)
	p.SetCoeff(r3, z, 1)

	var buf bytes.Buffer
	if err := WriteMPS(&buf, p, "test", nil); err != nil {
		t.Fatal(err)
	}
	q, ints, err := ReadMPS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ints) != 0 {
		t.Fatalf("spurious integer columns %v", ints)
	}
	a, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != b.Status || math.Abs(a.Objective-b.Objective) > 1e-9 {
		t.Fatalf("round trip changed the problem: %v %g vs %v %g",
			a.Status, a.Objective, b.Status, b.Objective)
	}
}

func TestMPSIntegerMarkers(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 1, -3, "x")
	y := p.AddVariable(0, 5.5, -1, "y") // continuous
	z := p.AddVariable(0, 4, -2, "z")
	r := p.AddConstraint(LE, 6)
	p.SetCoeff(r, x, 2)
	p.SetCoeff(r, y, 1)
	p.SetCoeff(r, z, 1)
	var buf bytes.Buffer
	if err := WriteMPS(&buf, p, "mip", []int{x, z}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "INTORG") || !strings.Contains(out, "INTEND") {
		t.Fatalf("markers missing:\n%s", out)
	}
	_, ints, err := ReadMPS(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(ints) != 2 {
		t.Fatalf("integer columns = %v, want 2 entries", ints)
	}
}

func TestMPSBoundKinds(t *testing.T) {
	in := `NAME  bounds
ROWS
 N  OBJ
 L  R0
COLUMNS
    a  OBJ  1  R0  1
    b  OBJ  1  R0  1
    c  OBJ  1  R0  1
    d  OBJ  1  R0  1
    e  OBJ  1  R0  1
RHS
    RHS  R0  100
BOUNDS
 FX BND  a  3
 FR BND  b
 MI BND  c
 UP BND  c  9
 BV BND  d
 UI BND  e  7
ENDATA
`
	p, ints, err := ReadMPS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, wantLo, wantHi float64) {
		t.Helper()
		for j := 0; j < p.NumVariables(); j++ {
			if p.Name(j) == name {
				lo, hi := p.Bounds(j)
				if lo != wantLo || hi != wantHi {
					t.Fatalf("%s bounds [%g, %g], want [%g, %g]", name, lo, hi, wantLo, wantHi)
				}
				return
			}
		}
		t.Fatalf("column %s not found", name)
	}
	check("a", 3, 3)
	check("b", math.Inf(-1), math.Inf(1))
	check("c", math.Inf(-1), 9)
	check("d", 0, 1)
	check("e", 0, 7)
	if len(ints) != 2 { // d (BV) and e (UI)
		t.Fatalf("integer columns = %v", ints)
	}
}

func TestMPSErrors(t *testing.T) {
	cases := []string{
		"ROWS\n X  R0\nENDATA\n",                         // unknown row kind
		"ROWS\n N OBJ\nCOLUMNS\n    a  R9  1\nENDATA\n",  // unknown row
		"ROWS\n N OBJ\nRHS\n    RHS  R9  1\nENDATA\n",    // unknown RHS row
		"ROWS\n N OBJ\nBOUNDS\n UP BND  zz  1\nENDATA\n", // unknown column
		"ROWS\n N OBJ\nRANGES\n    RNG R0 1\nENDATA\n",   // RANGES unsupported
		"    a OBJ 1\n",          // data before section
		"ROWS\n L  R0\nENDATA\n", // no objective row
	}
	for i, in := range cases {
		if _, _, err := ReadMPS(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d accepted:\n%s", i, in)
		}
	}
}

func TestWriteMPSBadInteger(t *testing.T) {
	p := NewProblem()
	p.AddVariable(0, 1, 0, "x")
	var buf bytes.Buffer
	if err := WriteMPS(&buf, p, "t", []int{7}); err == nil {
		t.Fatal("out-of-range integer column accepted")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a b/c:d"); got != "a_b_c_d" {
		t.Fatalf("sanitize = %q", got)
	}
}

// Property: WriteMPS -> ReadMPS -> Solve agrees with solving the original
// (status and objective), for random feasible bounded LPs.
func TestMPSRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		p := randomFeasibleLP(r)
		var buf bytes.Buffer
		if err := WriteMPS(&buf, p, "rt", nil); err != nil {
			return false
		}
		q, _, err := ReadMPS(&buf)
		if err != nil {
			t.Logf("seed %d: read: %v", seed, err)
			return false
		}
		a, err := p.Solve(Options{})
		if err != nil {
			return false
		}
		b, err := q.Solve(Options{})
		if err != nil {
			return false
		}
		if a.Status != b.Status {
			t.Logf("seed %d: status %v vs %v", seed, a.Status, b.Status)
			return false
		}
		if a.Status == Optimal && math.Abs(a.Objective-b.Objective) > 1e-6 {
			t.Logf("seed %d: objective %g vs %g", seed, a.Objective, b.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickcheck.Config(t, 120)); err != nil {
		t.Fatal(err)
	}
}
