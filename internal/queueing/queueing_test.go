package queueing

import (
	"testing"
	"testing/quick"

	"repro/internal/dynp"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/quickcheck"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func j(id int, submit int64, width int, est, run int64) *job.Job {
	return &job.Job{ID: id, Submit: submit, Width: width, Estimate: est, Runtime: run}
}

func trace(procs int, jobs ...*job.Job) *job.Trace {
	t := &job.Trace{Processors: procs, Jobs: jobs}
	t.SortBySubmit()
	return t
}

func find(t *testing.T, r *Result, id int) metrics.Completion {
	t.Helper()
	for _, c := range r.Completed {
		if c.Job.ID == id {
			return c
		}
	}
	t.Fatalf("job %d not completed", id)
	return metrics.Completion{}
}

func TestFCFSNoBackfillBlocks(t *testing.T) {
	// Head job (w=4) blocked by a running 2-wide job; a narrow job behind
	// it must NOT start under strict FCFS even though it would fit.
	tr := trace(4,
		j(1, 0, 2, 100, 100),
		j(2, 1, 4, 50, 50),
		j(3, 2, 2, 20, 20),
	)
	res, err := Simulate(tr, FCFSNoBackfill, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c := find(t, res, 3); c.Start != 150 {
		t.Fatalf("job 3 start %d, want 150 (after head)", c.Start)
	}
	if res.Backfilled != 0 {
		t.Fatalf("strict FCFS backfilled %d jobs", res.Backfilled)
	}
}

func TestEASYBackfillsShortJob(t *testing.T) {
	// Same trace under EASY: job 3 (20 s) finishes before the head's
	// shadow time (100), so it backfills immediately.
	tr := trace(4,
		j(1, 0, 2, 100, 100),
		j(2, 1, 4, 50, 50),
		j(3, 2, 2, 20, 20),
	)
	res, err := Simulate(tr, EASY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c := find(t, res, 3); c.Start != 2 {
		t.Fatalf("job 3 start %d, want 2 (backfilled)", c.Start)
	}
	if c := find(t, res, 2); c.Start != 100 {
		t.Fatalf("head start %d, want 100 (not delayed)", c.Start)
	}
	if res.Backfilled != 1 {
		t.Fatalf("Backfilled = %d, want 1", res.Backfilled)
	}
}

func TestEASYDoesNotDelayHead(t *testing.T) {
	// A long candidate that fits now but would run past the shadow time
	// and exceed the extra nodes must NOT backfill.
	tr := trace(4,
		j(1, 0, 2, 100, 100), // running, ends (estimated) at 100
		j(2, 1, 4, 50, 50),   // head, shadow = 100, extra = 0
		j(3, 2, 2, 500, 500), // would delay the head
	)
	res, err := Simulate(tr, EASY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c := find(t, res, 2); c.Start != 100 {
		t.Fatalf("head start %d, want 100", c.Start)
	}
	if c := find(t, res, 3); c.Start < 150 {
		t.Fatalf("long candidate started at %d, delaying the head", c.Start)
	}
}

func TestEASYExtraNodes(t *testing.T) {
	// Head needs 3 of 4 processors: one extra node. A long 1-wide job may
	// backfill on the extra node even though it outlives the shadow time.
	tr := trace(4,
		j(1, 0, 4, 100, 100), // occupies everything
		j(2, 1, 3, 50, 50),   // head: shadow 100, extra 1
		j(3, 2, 1, 900, 900), // 1-wide, fits the extra node
	)
	res, err := Simulate(tr, EASY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c := find(t, res, 3); c.Start != 100 {
		// It cannot start before 100 (no free processor), but at 100 both
		// the head and the extra-node job start together.
		t.Fatalf("extra-node job start %d, want 100", c.Start)
	}
	if c := find(t, res, 2); c.Start != 100 {
		t.Fatalf("head start %d, want 100", c.Start)
	}
}

func TestEarlyCompletionStartsQueue(t *testing.T) {
	// Queueing systems react to actual completions: job 1 estimates 100
	// but ends at 40, so the head starts at 40.
	tr := trace(2,
		j(1, 0, 2, 100, 40),
		j(2, 1, 2, 50, 50),
	)
	for _, d := range []Discipline{FCFSNoBackfill, EASY} {
		res, err := Simulate(tr, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if c := find(t, res, 2); c.Start != 40 {
			t.Fatalf("%v: job 2 start %d, want 40", d, c.Start)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(&job.Trace{}, EASY, 4); err == nil {
		t.Fatal("empty trace accepted")
	}
	tr := trace(0, j(1, 0, 2, 10, 10))
	if _, err := Simulate(tr, EASY, 0); err == nil {
		t.Fatal("unknown machine size accepted")
	}
	wide := trace(2, j(1, 0, 2, 10, 10))
	if _, err := Simulate(wide, EASY, 1); err == nil {
		t.Fatal("over-wide job accepted")
	}
}

func TestDisciplineString(t *testing.T) {
	if FCFSNoBackfill.String() != "FCFS-noBF" || EASY.String() != "EASY" {
		t.Fatal("Discipline.String broken")
	}
}

// Property: every queueing run completes all jobs exactly once without
// over-committing the machine, EASY never performs worse than strict
// FCFS on mean wait... (not true in general!) — so we assert only the
// safety invariants plus "EASY backfills at least as many jobs as strict
// FCFS" (trivially >= 0) and utilization is well-defined.
func TestQueueingInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		procs := r.Intn(15) + 2
		n := r.Intn(25) + 1
		tr := &job.Trace{Processors: procs}
		var clock int64
		for i := 0; i < n; i++ {
			clock += int64(r.Intn(150))
			run := int64(r.Intn(400) + 1)
			tr.Jobs = append(tr.Jobs, j(i+1, clock, r.Intn(procs)+1, run+int64(r.Intn(200)), run))
		}
		for _, d := range []Discipline{FCFSNoBackfill, EASY} {
			res, err := Simulate(tr, d, 0)
			if err != nil {
				return false
			}
			if len(res.Completed) != n {
				return false
			}
			p := machine.New(procs, 0)
			for _, c := range res.Completed {
				if c.Start < c.Job.Submit {
					return false
				}
				if c.End != c.Start+c.Job.Runtime {
					return false
				}
				if p.Reserve(c.Start, c.End, c.Job.Width) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickcheck.Config(t, 80)); err != nil {
		t.Fatal(err)
	}
}

// EASY's guarantee is only that the queue *head* is never delayed by a
// backfill decision; jobs further back can occasionally lose even with
// exact estimates, so "EASY <= FCFS" is not a per-instance invariant.
// Statistically, however, backfilling must be a clear net win: across
// many random workloads EASY's mean wait should beat strict FCFS's on
// the vast majority of instances and by a large margin in aggregate.
func TestEASYBeatsStrictFCFSStatistically(t *testing.T) {
	const trials = 80
	wins, losses := 0, 0
	var fcTotal, ezTotal float64
	for seed := uint64(1); seed <= trials; seed++ {
		r := stats.NewRand(seed)
		procs := r.Intn(12) + 2
		n := r.Intn(20) + 2
		tr := &job.Trace{Processors: procs}
		var clock int64
		for i := 0; i < n; i++ {
			clock += int64(r.Intn(100))
			run := int64(r.Intn(300) + 1)
			tr.Jobs = append(tr.Jobs, j(i+1, clock, r.Intn(procs)+1, run, run))
		}
		fc, err := Simulate(tr, FCFSNoBackfill, 0)
		if err != nil {
			t.Fatal(err)
		}
		ez, err := Simulate(tr, EASY, 0)
		if err != nil {
			t.Fatal(err)
		}
		fw := fc.Observe(procs).MeanWait
		ew := ez.Observe(procs).MeanWait
		fcTotal += fw
		ezTotal += ew
		switch {
		case ew < fw-1e-9:
			wins++
		case ew > fw+1e-9:
			losses++
		}
	}
	if losses > wins {
		t.Fatalf("EASY lost more often than it won: %d wins, %d losses", wins, losses)
	}
	if ezTotal > fcTotal {
		t.Fatalf("EASY aggregate mean wait %v worse than strict FCFS %v", ezTotal, fcTotal)
	}
}

// Planning-based FCFS (conservative backfilling) and EASY are different
// systems; on the CTC-like workload both must complete everything, and
// planning (which backfills more aggressively into the future plan)
// should not be dramatically worse.
func TestQueueingVsPlanningSmoke(t *testing.T) {
	tr, err := workload.Generate(workload.CTC(), 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	ez, err := Simulate(tr, EASY, 0)
	if err != nil {
		t.Fatal(err)
	}
	sched := dynp.MustNew([]policy.Policy{policy.FCFS{}}, metrics.SLDwA{}, dynp.SimpleDecider{})
	s, err := sim.New(tr, sched, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ez.Completed) != 200 || len(plan.Completed) != 200 {
		t.Fatalf("job loss: EASY %d, planning %d", len(ez.Completed), len(plan.Completed))
	}
}

func BenchmarkEASY500Jobs(b *testing.B) {
	tr, err := workload.Generate(workload.CTC(), 500, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, EASY, 0); err != nil {
			b.Fatal(err)
		}
	}
}
