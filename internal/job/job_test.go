package job

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/quickcheck"
)

func valid(id int) *Job {
	return &Job{ID: id, Submit: int64(id) * 10, Width: 2, Estimate: 100, Runtime: 80}
}

func TestValidateOK(t *testing.T) {
	if err := valid(1).Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Job)
		want string
	}{
		{"zero id", func(j *Job) { j.ID = 0 }, "non-positive ID"},
		{"negative submit", func(j *Job) { j.Submit = -1 }, "negative submit"},
		{"zero width", func(j *Job) { j.Width = 0 }, "width"},
		{"zero estimate", func(j *Job) { j.Estimate = 0 }, "estimate"},
		{"zero runtime", func(j *Job) { j.Runtime = 0 }, "runtime"},
		{"runtime over estimate", func(j *Job) { j.Runtime = j.Estimate + 1 }, "exceeds estimate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j := valid(1)
			c.mut(j)
			err := j.Validate()
			if err == nil {
				t.Fatalf("expected error for %s", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestArea(t *testing.T) {
	j := &Job{ID: 1, Width: 8, Estimate: 3600, Runtime: 1800}
	if got := j.Area(); got != 8*3600 {
		t.Fatalf("Area = %d, want %d", got, 8*3600)
	}
	if got := j.ActualArea(); got != 8*1800 {
		t.Fatalf("ActualArea = %d, want %d", got, 8*1800)
	}
}

func TestTraceValidate(t *testing.T) {
	tr := &Trace{Jobs: []*Job{valid(1), valid(2)}, Processors: 16}
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	empty := &Trace{}
	if err := empty.Validate(); err != ErrEmptyTrace {
		t.Fatalf("empty trace: got %v, want ErrEmptyTrace", err)
	}

	dup := &Trace{Jobs: []*Job{valid(1), valid(1)}}
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate IDs not rejected: %v", err)
	}

	unsorted := &Trace{Jobs: []*Job{valid(2), valid(1)}}
	if err := unsorted.Validate(); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("unsorted trace not rejected: %v", err)
	}

	tooWide := &Trace{Jobs: []*Job{valid(1)}, Processors: 1}
	if err := tooWide.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds machine size") {
		t.Fatalf("over-wide job not rejected: %v", err)
	}
}

func TestSortBySubmit(t *testing.T) {
	a, b, c := valid(3), valid(1), valid(2)
	a.Submit, b.Submit, c.Submit = 5, 5, 1
	tr := &Trace{Jobs: []*Job{a, b, c}}
	tr.SortBySubmit()
	if tr.Jobs[0] != c || tr.Jobs[1] != b || tr.Jobs[2] != a {
		t.Fatalf("sort order wrong: %v %v %v", tr.Jobs[0].ID, tr.Jobs[1].ID, tr.Jobs[2].ID)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("sorted trace invalid: %v", err)
	}
}

func TestMeanInterarrival(t *testing.T) {
	tr := &Trace{Jobs: []*Job{valid(1), valid(2), valid(3)}}
	tr.Jobs[0].Submit, tr.Jobs[1].Submit, tr.Jobs[2].Submit = 0, 100, 400
	if got := tr.MeanInterarrival(); got != 200 {
		t.Fatalf("MeanInterarrival = %v, want 200", got)
	}
	one := &Trace{Jobs: []*Job{valid(1)}}
	if got := one.MeanInterarrival(); got != 0 {
		t.Fatalf("single-job interarrival = %v, want 0", got)
	}
}

func TestAccumulatedRuntime(t *testing.T) {
	jobs := []*Job{valid(1), valid(2)}
	jobs[0].Estimate, jobs[1].Estimate = 100, 250
	if got := AccumulatedRuntime(jobs); got != 350 {
		t.Fatalf("AccumulatedRuntime = %d, want 350", got)
	}
}

func TestClone(t *testing.T) {
	tr := &Trace{Jobs: []*Job{valid(1)}, Processors: 4, Note: "x"}
	cp := tr.Clone()
	cp.Jobs[0].Width = 99
	if tr.Jobs[0].Width == 99 {
		t.Fatal("Clone shares job memory with the original")
	}
	if cp.Processors != 4 || cp.Note != "x" {
		t.Fatal("Clone lost metadata")
	}
}

// Property: Area is always Width*Estimate and non-negative for valid jobs.
func TestAreaProperty(t *testing.T) {
	f := func(w uint8, est uint16) bool {
		j := &Job{ID: 1, Width: int(w%64) + 1, Estimate: int64(est%10000) + 1}
		j.Runtime = j.Estimate
		return j.Area() == int64(j.Width)*j.Estimate && j.Area() > 0
	}
	if err := quick.Check(f, quickcheck.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
}

// Property: SortBySubmit always yields a trace that passes the ordering
// part of Validate.
func TestSortProperty(t *testing.T) {
	f := func(subs []uint16) bool {
		if len(subs) == 0 {
			return true
		}
		tr := &Trace{}
		for i, s := range subs {
			j := valid(i + 1)
			j.Submit = int64(s)
			tr.Jobs = append(tr.Jobs, j)
		}
		tr.SortBySubmit()
		return tr.Validate() == nil
	}
	if err := quick.Check(f, quickcheck.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}
