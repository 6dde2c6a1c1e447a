package plan

import (
	"testing"

	"repro/internal/job"
	"repro/internal/schedule"
)

type started struct {
	j     *job.Job
	start int64
}

func (s started) Started() (*job.Job, int64) { return s.j, s.start }

func mustKernel(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// The base profile holds running jobs until their estimated ends, keeps
// a job that is overdue per its estimate for one more second, and
// blocks the unexpired part of every reservation.
func TestBaseClampsOverdueAndBlocksReservations(t *testing.T) {
	k := mustKernel(t, Config{Machine: 8, Reservations: []Reservation{
		{Start: 0, End: 50, Width: 8},      // elapsed at now=100
		{Start: 90, End: 130, Width: 1},    // started before now: blocks [100,130)
		{Start: 300, End: 400, Width: 2},   // in the future
		{Start: 1000, End: 1001, Width: 8}, // whole machine, later
	}})
	running := map[int]started{
		1: {&job.Job{ID: 1, Width: 2, Estimate: 50, Runtime: 50}, 20}, // overdue: ends at 70 < now
		2: {&job.Job{ID: 2, Width: 3, Estimate: 200, Runtime: 80}, 0}, // ends at 200
	}
	p, err := Base(k, 100, running)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		t    int64
		free int
	}{
		{100, 8 - 2 - 3 - 1}, // overdue job, job 2 and the open reservation
		{101, 8 - 3 - 1},     // the overdue job is released one second later
		{130, 8 - 3},
		{200, 8},
		{300, 8 - 2},
		{400, 8},
		{1000, 0},
		{1001, 8},
	} {
		if got := p.FreeAt(c.t); got != c.free {
			t.Errorf("free at %d = %d, want %d", c.t, got, c.free)
		}
	}
	if _, err := New(Config{Machine: 8, Reservations: []Reservation{{Start: 5, End: 5, Width: 1}}}); err == nil {
		t.Error("empty reservation window accepted")
	}
	if _, err := New(Config{Machine: 8, Reservations: []Reservation{{Start: 0, End: 5, Width: 9}}}); err == nil {
		t.Error("reservation wider than the machine accepted")
	}
}

// Due jobs start in (planned start, ID) order; jobs that are planned
// but no longer waiting, or planned later, are left out.
func TestDueOrder(t *testing.T) {
	jobs := map[int]*job.Job{}
	for id := 1; id <= 5; id++ {
		jobs[id] = &job.Job{ID: id, Width: 1, Estimate: 10, Runtime: 10}
	}
	delete(jobs, 4) // started since
	starts := map[int]int64{1: 50, 2: 40, 3: 50, 4: 10, 5: 60}
	var got []int
	for _, j := range Due(starts, jobs, 50) {
		got = append(got, j.ID)
	}
	if want := []int{2, 1, 3}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("due = %v, want %v", got, want)
	}
}

// reuseSeed derives the next step's incumbent candidate from the last
// served ILP schedule: departed jobs are dropped, survivors keep their
// relative order, and new arrivals are appended behind them.
func TestReuseSeedFiltersAndAppends(t *testing.T) {
	jA := &job.Job{ID: 1, Submit: 0, Width: 1, Runtime: 50, Estimate: 50}
	jB := &job.Job{ID: 2, Submit: 0, Width: 1, Runtime: 50, Estimate: 50}
	jC := &job.Job{ID: 3, Submit: 90, Width: 1, Runtime: 50, Estimate: 50}
	jD := &job.Job{ID: 4, Submit: 80, Width: 1, Runtime: 50, Estimate: 50}
	k := mustKernel(t, Config{Machine: 2, ILP: &ILPConfig{}})
	if k.reuseSeed(nil, 0) != nil {
		t.Fatal("reuse seed without a previous schedule")
	}
	ilp := &schedule.Schedule{Now: 90, Machine: 2, Entries: []schedule.Entry{
		{Job: jB, Start: 150}, {Job: jA, Start: 100},
	}}
	k.Serve(nil, 90, &Decision{Schedule: ilp}, ilp)
	// jA started since (not waiting); jC and jD arrived since.
	seed := k.reuseSeed([]*job.Job{jB, jC, jD}, 100)
	if seed == nil || len(seed.Entries) != 3 {
		t.Fatalf("seed = %+v, want 3 entries", seed)
	}
	// Survivor first with its planned start, then arrivals by submit
	// order (jD before jC) with strictly later starts.
	wantIDs := []int{2, 4, 3}
	for i, e := range seed.Entries {
		if e.Job.ID != wantIDs[i] {
			t.Fatalf("entry %d is job %d, want %d (%+v)", i, e.Job.ID, wantIDs[i], seed.Entries)
		}
	}
	if seed.Entries[0].Start != 150 {
		t.Fatalf("survivor start = %d, want its planned 150", seed.Entries[0].Start)
	}
	if !(seed.Entries[1].Start > 150 && seed.Entries[2].Start > seed.Entries[1].Start) {
		t.Fatalf("appended arrivals must sort last: %+v", seed.Entries)
	}
	// No overlap with the previous plan: no seed at all.
	if got := k.reuseSeed([]*job.Job{jC, jD}, 100); got != nil {
		t.Fatalf("seed from fully-departed plan = %+v, want nil", got)
	}
}

// The reuse seed comes only from an ILP schedule the driver served: a
// policy replan keeps it, serving anything but the decision's ILP
// schedule drops it.
func TestReuseSeedOnlyFromServedPlans(t *testing.T) {
	j := &job.Job{ID: 1, Submit: 0, Width: 1, Runtime: 50, Estimate: 50}
	waiting := []*job.Job{j}
	ilp := &schedule.Schedule{Machine: 1, Entries: []schedule.Entry{{Job: j, Start: 10}}}
	policy := &schedule.Schedule{Machine: 1, Entries: []schedule.Entry{{Job: j, Start: 20}}}
	k := mustKernel(t, Config{Machine: 1, ILP: &ILPConfig{}})

	k.Serve(nil, 0, &Decision{Schedule: ilp}, ilp)
	if k.reuseSeed(waiting, 0) == nil {
		t.Fatal("served ILP schedule does not seed")
	}
	k.Serve(nil, 0, nil, policy) // a replan
	if k.reuseSeed(waiting, 0) == nil {
		t.Fatal("a policy replan dropped the seed")
	}
	k.Serve(nil, 0, &Decision{Schedule: ilp}, policy) // a guarded step
	if seed := k.reuseSeed(waiting, 0); seed != nil {
		t.Fatalf("unserved ILP schedule still seeds: %+v", seed)
	}
}

// The digest identifies a plan by its (job, start) pairs, whatever the
// entry order.
func TestDigestOrderIndependent(t *testing.T) {
	a := &job.Job{ID: 1}
	b := &job.Job{ID: 2}
	x := &schedule.Schedule{Entries: []schedule.Entry{{Job: a, Start: 5}, {Job: b, Start: 7}}}
	y := &schedule.Schedule{Entries: []schedule.Entry{{Job: b, Start: 7}, {Job: a, Start: 5}}}
	z := &schedule.Schedule{Entries: []schedule.Entry{{Job: a, Start: 7}, {Job: b, Start: 5}}}
	if digest(x) != digest(y) {
		t.Error("entry order changed the digest")
	}
	if digest(x) == digest(z) {
		t.Error("swapped starts kept the digest")
	}
}
