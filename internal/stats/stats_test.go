package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/quickcheck"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestZeroSeedRemapped(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(369)
	}
	mean := sum / n
	if math.Abs(mean-369) > 5 {
		t.Fatalf("Exp mean = %v, want ~369", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRand(13)
	const n = 200000
	var sum, ss float64
	for i := 0; i < n; i++ {
		x := r.Norm(5, 2)
		sum += x
		ss += x * x
	}
	mean := sum / n
	v := ss/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("Norm mean = %v, want ~5", mean)
	}
	if math.Abs(math.Sqrt(v)-2) > 0.05 {
		t.Fatalf("Norm std = %v, want ~2", math.Sqrt(v))
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRand(17)
	for i := 0; i < 1000; i++ {
		if r.LogNormal(2, 1.5) <= 0 {
			t.Fatal("LogNormal produced non-positive value")
		}
	}
}

func TestChoiceDistribution(t *testing.T) {
	r := NewRand(19)
	counts := [3]int{}
	weights := []float64{1, 2, 7}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Choice(weights)]++
	}
	if frac := float64(counts[2]) / n; math.Abs(frac-0.7) > 0.02 {
		t.Fatalf("Choice weight-7 fraction = %v, want ~0.7", frac)
	}
	if frac := float64(counts[0]) / n; math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("Choice weight-1 fraction = %v, want ~0.1", frac)
	}
}

func TestChoicePanics(t *testing.T) {
	r := NewRand(1)
	for _, w := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Choice(%v) did not panic", w)
				}
			}()
			r.Choice(w)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(23)
	f := func(n uint8) bool {
		m := int(n % 50)
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == m
	}
	if err := quick.Check(f, quickcheck.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Sum != 15 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Std = %v, want sqrt(2.5)", s.Std)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty summary: %+v", z)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// Property: Summarize Min <= Median <= Max and Min <= Mean <= Max.
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			// Keep magnitudes small enough that sums of squares cannot
			// overflow; Summarize is used on metric values, not extremes.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, quickcheck.Config(t, 300)); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(2, 4, 8)
	for _, x := range []float64{1, 2, 3, 4, 7, 8, 100} {
		h.Add(x)
	}
	// Buckets: (-inf,2) (2,4) wait: [2,4) [4,8) [8,inf)
	want := []int{1, 2, 2, 2}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Total != 7 {
		t.Fatalf("total = %d", h.Total)
	}
	if f := h.Fraction(1); f != 2.0/7.0 {
		t.Fatalf("Fraction(1) = %v", f)
	}
	if (&Histogram{Bounds: []float64{1}, Counts: make([]int, 2)}).Fraction(0) != 0 {
		t.Fatal("empty histogram fraction not 0")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, bad := range [][]float64{{}, {3, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", bad)
				}
			}()
			NewHistogram(bad...)
		}()
	}
}

// Property: histogram buckets partition every sample exactly once.
func TestHistogramPartitionProperty(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(0, 10, 100)
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == n && h.Total == n
	}
	if err := quick.Check(f, quickcheck.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}
