package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/quickcheck"
)

func TestCTCConfigValid(t *testing.T) {
	for _, cfg := range []Config{CTC(), ShortBurst(), LongParallel()} {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Processors = 0 },
		func(c *Config) { c.MeanInterarrival = 0 },
		func(c *Config) { c.WidthValues = nil },
		func(c *Config) { c.WidthWeights = c.WidthWeights[:1] },
		func(c *Config) { c.MaxRuntime = 0 },
		func(c *Config) { c.ExactEstimateProb = 1.5 },
		func(c *Config) { c.Users = 0 },
		func(c *Config) { c.WidthValues = []int{0}; c.WidthWeights = []float64{1} },
		func(c *Config) { c.WidthValues = []int{9999}; c.WidthWeights = []float64{1} },
	}
	for i, mut := range muts {
		c := CTC()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestGenerateValidTrace(t *testing.T) {
	tr, err := Generate(CTC(), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 500 {
		t.Fatalf("generated %d jobs, want 500", len(tr.Jobs))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Processors != 430 {
		t.Fatalf("processors = %d, want 430", tr.Processors)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(CTC(), 100, 42)
	b, _ := Generate(CTC(), 100, 42)
	for i := range a.Jobs {
		if *a.Jobs[i] != *b.Jobs[i] {
			t.Fatalf("job %d differs across same-seed runs", i)
		}
	}
	c, _ := Generate(CTC(), 100, 43)
	same := true
	for i := range a.Jobs {
		if *a.Jobs[i] != *c.Jobs[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// E6: the generator must reproduce the paper's 369 s mean interarrival.
func TestMeanInterarrivalMatchesPaper(t *testing.T) {
	tr, err := Generate(CTC(), 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.MeanInterarrival()
	if math.Abs(got-370) > 15 { // 369 + the +1 s floor, sampling noise
		t.Fatalf("mean interarrival = %v, want ~369-370", got)
	}
}

func TestEstimateBounds(t *testing.T) {
	tr, err := Generate(CTC(), 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for _, j := range tr.Jobs {
		if j.Estimate < j.Runtime {
			t.Fatalf("job %d estimate %d < runtime %d", j.ID, j.Estimate, j.Runtime)
		}
		if j.Runtime > 64800 || j.Estimate > 64800 {
			t.Fatalf("job %d exceeds the 18h limit", j.ID)
		}
		if j.Estimate == j.Runtime {
			exact++
		}
	}
	frac := float64(exact) / float64(len(tr.Jobs))
	if frac < 0.08 || frac > 0.30 {
		t.Fatalf("exact-estimate fraction = %v, want near 0.15", frac)
	}
}

func TestWidthDistributionShape(t *testing.T) {
	tr, err := Generate(CTC(), 20000, 9)
	if err != nil {
		t.Fatal(err)
	}
	serial := 0
	for _, j := range tr.Jobs {
		if j.Width == 1 {
			serial++
		}
	}
	frac := float64(serial) / float64(len(tr.Jobs))
	if math.Abs(frac-0.35) > 0.03 {
		t.Fatalf("serial fraction = %v, want ~0.35", frac)
	}
}

func TestShortBurstVsLongParallel(t *testing.T) {
	short, _ := Generate(ShortBurst(), 3000, 5)
	long, _ := Generate(LongParallel(), 3000, 5)
	var sMean, lMean float64
	for _, j := range short.Jobs {
		sMean += float64(j.Runtime)
	}
	for _, j := range long.Jobs {
		lMean += float64(j.Runtime)
	}
	sMean /= float64(len(short.Jobs))
	lMean /= float64(len(long.Jobs))
	if !(lMean > 10*sMean) {
		t.Fatalf("long-parallel mean runtime %v not >> short-burst %v", lMean, sMean)
	}
}

func TestGeneratePhased(t *testing.T) {
	tr, err := GeneratePhased([]Phase{
		{Cfg: ShortBurst(), Jobs: 50},
		{Cfg: LongParallel(), Jobs: 20},
		{Cfg: ShortBurst(), Jobs: 30},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 100 {
		t.Fatalf("phased jobs = %d, want 100", len(tr.Jobs))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err) // also checks IDs unique and submits sorted across phases
	}
	if _, err := GeneratePhased(nil, 1); err == nil {
		t.Fatal("empty phase list accepted")
	}
}

func TestGenerateErrors(t *testing.T) {
	bad := CTC()
	bad.Processors = 0
	if _, err := Generate(bad, 10, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := Generate(CTC(), -1, 1); err == nil {
		t.Fatal("negative count accepted")
	}
}

// Property: every generated trace validates and respects the configured
// machine size, for arbitrary seeds and sizes.
func TestGenerateProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		tr, err := Generate(CTC(), int(n%300), seed)
		if err != nil {
			return false
		}
		if len(tr.Jobs) == 0 {
			return true
		}
		if tr.Validate() != nil {
			return false
		}
		for _, j := range tr.Jobs {
			if j.Width > tr.Processors {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickcheck.Config(t, 50)); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate1000(b *testing.B) {
	cfg := CTC()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg, 1000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDailyAmplitudeValidation(t *testing.T) {
	c := CTC()
	c.DailyAmplitude = 1.0
	if err := c.Validate(); err == nil {
		t.Fatal("amplitude 1.0 accepted")
	}
	c.DailyAmplitude = -0.1
	if err := c.Validate(); err == nil {
		t.Fatal("negative amplitude accepted")
	}
	c.DailyAmplitude = 0.9
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDailyCycleShiftsArrivals(t *testing.T) {
	c := CTC()
	c.DailyAmplitude = 0.85
	tr, err := Generate(c, 30000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Count arrivals in the "day" half (06:00-18:00 of the cycle, around
	// the midday peak) versus the "night" half.
	day, night := 0, 0
	for _, j := range tr.Jobs {
		tod := j.Submit % 86400
		if tod >= 6*3600 && tod < 18*3600 {
			day++
		} else {
			night++
		}
	}
	if !(float64(day) > 1.5*float64(night)) {
		t.Fatalf("diurnal cycle too weak: %d day vs %d night arrivals", day, night)
	}
	// Without the cycle the halves are balanced.
	flat, err := Generate(CTC(), 30000, 13)
	if err != nil {
		t.Fatal(err)
	}
	day, night = 0, 0
	for _, j := range flat.Jobs {
		tod := j.Submit % 86400
		if tod >= 6*3600 && tod < 18*3600 {
			day++
		} else {
			night++
		}
	}
	ratio := float64(day) / float64(night)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("flat workload unbalanced: day/night ratio %v", ratio)
	}
}
