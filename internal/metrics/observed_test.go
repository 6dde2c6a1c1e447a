package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/quickcheck"
	"repro/internal/stats"
)

func comp(id int, submit, start, run int64, width int) Completion {
	return Completion{
		Job: &job.Job{ID: id, Submit: submit, Width: width,
			Estimate: run, Runtime: run},
		Start: start,
		End:   start + run,
	}
}

func TestCompletionDerived(t *testing.T) {
	c := comp(1, 100, 130, 50, 4)
	if c.ResponseTime() != 80 || c.WaitTime() != 30 {
		t.Fatalf("derived times wrong: %d %d", c.ResponseTime(), c.WaitTime())
	}
	if c.Slowdown() != 80.0/50.0 {
		t.Fatalf("slowdown = %v", c.Slowdown())
	}
}

func TestBoundedSlowdown(t *testing.T) {
	// 1-second job that waited 9 seconds: raw slowdown 10, bounded (tau
	// 10) = max(1, 10/10) = 1.
	c := comp(1, 0, 9, 1, 1)
	if got := c.Slowdown(); got != 10 {
		t.Fatalf("raw slowdown = %v, want 10", got)
	}
	if got := c.BoundedSlowdown(10); got != 1 {
		t.Fatalf("bounded slowdown = %v, want 1", got)
	}
	// Long job: bounded equals raw.
	c2 := comp(2, 0, 100, 1000, 1)
	if c2.BoundedSlowdown(10) != c2.Slowdown() {
		t.Fatal("bounded slowdown altered a long job")
	}
	// Never below 1.
	c3 := comp(3, 0, 0, 5, 1)
	if got := c3.BoundedSlowdown(10); got != 1 {
		t.Fatalf("bounded slowdown = %v, want 1 (floor)", got)
	}
}

func TestObserve(t *testing.T) {
	cs := []Completion{
		comp(1, 0, 0, 100, 2),   // resp 100, wait 0, sld 1, area 200
		comp(2, 0, 100, 100, 2), // resp 200, wait 100, sld 2, area 200
	}
	o := Observe(cs, 2)
	if o.Jobs != 2 {
		t.Fatalf("jobs = %d", o.Jobs)
	}
	if o.MeanResponse != 150 || o.MeanWait != 50 || o.MeanSlowdown != 1.5 {
		t.Fatalf("means wrong: %+v", o)
	}
	if o.SLDwA != 1.5 {
		t.Fatalf("SLDwA = %v, want 1.5", o.SLDwA)
	}
	if o.MaxWait != 100 {
		t.Fatalf("MaxWait = %d, want 100", o.MaxWait)
	}
	if o.Makespan != 200 {
		t.Fatalf("Makespan = %d, want 200", o.Makespan)
	}
	if o.Utilization != 1.0 {
		t.Fatalf("Utilization = %v, want 1 (back to back)", o.Utilization)
	}
	// ARTwW = (100*2 + 200*2)/4 = 150.
	if o.WeightedResponse != 150 {
		t.Fatalf("WeightedResponse = %v, want 150", o.WeightedResponse)
	}
	if z := Observe(nil, 4); z.Jobs != 0 || z.MeanResponse != 0 {
		t.Fatalf("empty Observe: %+v", z)
	}
}

// Property: Observed means lie within the per-job extreme values, and
// utilization never exceeds 1 for non-overcommitted completions.
func TestObserveBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		n := r.Intn(20) + 1
		var cs []Completion
		clock := int64(0)
		for i := 0; i < n; i++ {
			run := int64(r.Intn(500) + 1)
			// Sequential on one processor: utilization <= 1 guaranteed.
			c := comp(i+1, int64(r.Intn(int(clock)+1)), clock, run, 1)
			cs = append(cs, c)
			clock += run
		}
		o := Observe(cs, 1)
		minR, maxR := math.Inf(1), math.Inf(-1)
		for _, c := range cs {
			v := float64(c.ResponseTime())
			minR = math.Min(minR, v)
			maxR = math.Max(maxR, v)
		}
		if o.MeanResponse < minR-1e-9 || o.MeanResponse > maxR+1e-9 {
			return false
		}
		if o.Utilization > 1+1e-9 || o.Utilization <= 0 {
			return false
		}
		if o.BoundedSlowdown < 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickcheck.Config(t, 150)); err != nil {
		t.Fatal(err)
	}
}
