// Package plan is the planning kernel: the one definition of a
// self-tuning planning step, shared by the offline simulator
// (internal/sim), the online service (internal/schedd) and the per-step
// comparator (internal/core). A step turns the machine history and the
// waiting queue into a full schedule; an ILP-driven step also solves its
// quasi off-line instance and validates the result against the history.
// Drivers keep their own bookkeeping and report which schedule they
// served: only a served ILP schedule seeds the next step's solve.
package plan

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/solvepipe"
)

// Reservation is an advance reservation: Width processors are promised to
// an external party on [Start, End) and are unavailable to batch jobs.
// Supporting these is the planning-based RMS capability the paper
// highlights ("a request for a reservation is submitted ... an answer is
// expected immediately"); queueing systems cannot offer them.
type Reservation struct {
	Start, End int64
	Width      int
}

// ILPConfig makes steps ILP-driven: each step's instance is solved
// through the internal/solvepipe retry ladder, and the compacted
// schedule replaces the basic-policy one when it fits the history.
type ILPConfig struct {
	// Pipe parameterizes the retry ladder. Trace and Metrics default to
	// the driver's sinks, Seed to the chosen basic-policy schedule,
	// Cache to the kernel's step cache, ReuseSeed to its reuse seed.
	Pipe solvepipe.Config
	// StepCacheOff disables the cross-step solution cache: by default a
	// step whose relative instance fingerprint matches a solved one
	// adopts the rebased cached schedule (re-validated) without a solve.
	StepCacheOff bool
	// ReuseOff disables seeding each step's branch and bound with the
	// last served ILP schedule (only an incumbent candidate: the proven
	// optimum never changes).
	ReuseOff bool
}

// Config parameterizes a kernel: the processor count, the reservations
// blocked in every step's history, the ILP decision (nil: none) and the
// solve pipeline's default metrics sink.
type Config struct {
	Machine      int
	Reservations []Reservation
	ILP          *ILPConfig
	Metrics      *obs.Registry
}

// Kernel is one driver's planning state: its configuration, the
// cross-step solution cache and the reuse seed. Drivers call it from
// their single planning goroutine.
type Kernel struct {
	cfg   Config
	cache *solvepipe.StepCache
	// served is the last served ILP schedule, the reuse seed's source.
	served *schedule.Schedule
	// running is Base's scratch list of running jobs.
	running []machine.Running
}

// New validates the reservations and returns a kernel.
func New(cfg Config) (*Kernel, error) {
	for _, rv := range cfg.Reservations {
		if rv.Width < 1 || rv.Width > cfg.Machine {
			return nil, fmt.Errorf("reservation width %d outside [1, %d]", rv.Width, cfg.Machine)
		}
		if rv.End <= rv.Start || rv.Start < 0 {
			return nil, fmt.Errorf("bad reservation window [%d, %d)", rv.Start, rv.End)
		}
	}
	k := &Kernel{cfg: cfg}
	if cfg.ILP != nil && !cfg.ILP.StepCacheOff && cfg.ILP.Pipe.Cache == nil {
		k.cache = solvepipe.NewStepCache(0)
	}
	return k, nil
}

// Started is a driver's record of a running job: the job and the
// instant it started.
type Started interface {
	Started() (j *job.Job, start int64)
}

// Base returns the machine history of a step at now: every running job
// occupies its width until its estimated end (planning never sees
// actual runtimes), and the kernel's reservations are blocked.
func Base[R Started](k *Kernel, now int64, running map[int]R) (*machine.Profile, error) {
	rs := k.running[:0]
	for _, r := range running {
		j, start := r.Started()
		rs = append(rs, machine.Running{JobID: j.ID, Width: j.Width, End: start + j.Estimate})
	}
	k.running = rs
	return Profile(k.cfg.Machine, now, rs, k.cfg.Reservations)
}

// Profile returns the capacity profile at now of total processors with
// the running jobs rs, each ending at its estimated end, and the
// reservations blocked. A job overdue per its own estimate but not yet
// completed (a driver catching up after a busy stretch) keeps
// occupying capacity for one more second. rs is modified in place.
func Profile(total int, now int64, rs []machine.Running, reservations []Reservation) (*machine.Profile, error) {
	for i := range rs {
		if rs[i].End <= now {
			rs[i].End = now + 1
		}
	}
	h, err := machine.HistoryFromRunning(total, now, rs)
	if err != nil {
		return nil, err
	}
	p := h.Profile(total)
	for _, rv := range reservations {
		if rv.End <= now {
			continue // already elapsed
		}
		if err := p.Reserve(max(rv.Start, now), rv.End, rv.Width); err != nil {
			return nil, fmt.Errorf("reservation [%d,%d)x%d conflicts: %v", rv.Start, rv.End, rv.Width, err)
		}
	}
	return p, nil
}

// Waiting returns the waiting queue in ID order, the order every step
// sees it in.
func Waiting(waiting map[int]*job.Job) []*job.Job {
	out := make([]*job.Job, 0, len(waiting))
	for _, j := range waiting {
		out = append(out, j)
	}
	slices.SortFunc(out, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Due returns the waiting jobs whose planned start is at or before t,
// in the order they start: by planned start, then ID.
func Due(starts map[int]int64, waiting map[int]*job.Job, t int64) []*job.Job {
	var due []*job.Job
	for id, start := range starts {
		if start <= t {
			if j, ok := waiting[id]; ok {
				due = append(due, j)
			}
		}
	}
	slices.SortFunc(due, func(a, b *job.Job) int {
		if c := cmp.Compare(starts[a.ID], starts[b.ID]); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return due
}

// Horizon is a step's horizon bound T: the latest makespan among its
// policy schedules.
func Horizon(evals []dynp.Evaluation) int64 {
	var horizon int64
	for _, e := range evals {
		horizon = max(horizon, e.Schedule.Makespan())
	}
	return horizon
}

// Instance returns the quasi off-line instance of a step, or nil when
// horizon <= now: every waiting job starts now and there is nothing to
// order.
func Instance(now int64, base *machine.Profile, waiting []*job.Job, horizon int64) *ilpsched.Instance {
	if horizon <= now {
		return nil
	}
	return &ilpsched.Instance{
		Now:     now,
		Machine: base.Total(),
		Base:    base,
		Jobs:    waiting,
		Horizon: horizon,
	}
}

// Decision is the ILP half of one step. Outcome is the pipeline's
// record (nil when the instance was trivial), Schedule the compacted ILP
// schedule validated against the base (nil on failure). Failure and Err
// describe a failure: the pipeline's, or FailError for a schedule that
// does not fit the base (a solver bug, not an instance property).
type Decision struct {
	Outcome  *solvepipe.Outcome
	Schedule *schedule.Schedule
	Failure  solvepipe.FailureKind
	Err      error
	policy   string // the chosen basic policy, the fallback
}

// Failed reports that the step reached the pipeline but produced no
// servable schedule.
func (d *Decision) Failed() bool { return d.Outcome != nil && d.Schedule == nil }

// Solve makes the ILP decision of a self-tuning step: it builds the
// step's instance, runs it through the solve pipeline with the kernel's
// defaults, and validates the compacted schedule against base. tr is
// the pipeline's default tracer. The kernel must be ILP-driven.
func (k *Kernel) Solve(ctx context.Context, tr *obs.Tracer, now int64, res *dynp.StepResult, waiting []*job.Job, base *machine.Profile) *Decision {
	d := &Decision{policy: res.Chosen.Name()}
	inst := Instance(now, base, waiting, Horizon(res.Evals))
	if inst == nil {
		return d
	}
	pipe := k.cfg.ILP.Pipe
	if pipe.Trace == nil {
		pipe.Trace = tr
	}
	if pipe.Metrics == nil {
		pipe.Metrics = k.cfg.Metrics
	}
	if pipe.Seed == nil {
		pipe.Seed = res.Schedule
	}
	if pipe.Cache == nil {
		pipe.Cache = k.cache
	}
	if pipe.ReuseSeed == nil && !k.cfg.ILP.ReuseOff {
		pipe.ReuseSeed = k.reuseSeed(waiting, now)
	}
	out := solvepipe.Solve(ctx, pipe, inst)
	d.Outcome = out
	if out.Failed() {
		d.Failure, d.Err = out.LastFailure(), out.Err
		return d
	}
	sch := out.Solution.Compacted
	if err := sch.Validate(base); err != nil {
		d.Failure, d.Err = solvepipe.FailError, fmt.Errorf("infeasible ILP schedule: %v", err)
		return d
	}
	d.Schedule = sch
	return d
}

// Serve records that the driver adopted sch at now. d is the ILP
// decision sch answers (an anytime incumbent comes as a Decision with
// only its Schedule); nil, for a policy replan, keeps the reuse seed.
// Otherwise the seed becomes sch if sch is d's ILP schedule and is
// dropped if not: a fallback or a declined ILP schedule never seeds.
// A failed decision is traced as solve.fallback, and every adoption as
// plan.served with its size and digest, so the plan sequences of two
// runs compare from their traces.
func (k *Kernel) Serve(tr *obs.Tracer, now int64, d *Decision, sch *schedule.Schedule) {
	if d != nil {
		k.served = nil
		if sch == d.Schedule {
			k.served = sch
		}
		if d.Failed() {
			tr.Emit("solve.fallback",
				obs.Int("vt", now),
				obs.Str("cause", d.Failure.String()),
				obs.Int("attempts", int64(len(d.Outcome.Attempts))),
				obs.Str("policy", d.policy))
		}
	}
	if tr.Enabled() {
		tr.Emit("plan.served",
			obs.Int("vt", now),
			obs.Int("jobs", int64(len(sch.Entries))),
			obs.Int("digest", int64(digest(sch))))
	}
}

// digest is an order-independent hash of a schedule's (job, start)
// pairs: two schedules that plan the same jobs at the same starts have
// the same digest whatever their entry order.
func digest(sch *schedule.Schedule) uint64 {
	var sum uint64
	for _, e := range sch.Entries {
		x := (uint64(e.Job.ID)<<32 ^ uint64(e.Start)) * 0x9e3779b97f4a7c15
		sum += x ^ x>>29
	}
	return sum
}

// reuseSeed derives a second incumbent candidate from the last served
// ILP schedule: its entries restricted to the jobs still waiting, with
// jobs that arrived since appended behind them in submission order.
// Only the relative order matters downstream (IncumbentFromSchedule and
// the presolve upper-bound seeds list-schedule in start order), so the
// appended entries just need starts that sort last.
func (k *Kernel) reuseSeed(waiting []*job.Job, now int64) *schedule.Schedule {
	if k.served == nil {
		return nil
	}
	pending := make(map[int]bool, len(waiting)) // waiting jobs not yet placed
	for _, j := range waiting {
		pending[j.ID] = true
	}
	seed := &schedule.Schedule{Policy: "reuse", Now: now, Machine: k.cfg.Machine}
	maxStart := now
	for _, e := range k.served.Entries {
		if pending[e.Job.ID] { // still waiting: keep its place
			delete(pending, e.Job.ID)
			seed.Entries = append(seed.Entries, e)
			maxStart = max(maxStart, e.Start)
		}
	}
	if len(seed.Entries) == 0 {
		return nil // nothing of the old plan survives
	}
	arrived := make([]*job.Job, 0, len(pending))
	for _, j := range waiting {
		if pending[j.ID] {
			arrived = append(arrived, j)
		}
	}
	slices.SortFunc(arrived, func(a, b *job.Job) int {
		if c := cmp.Compare(a.Submit, b.Submit); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	for i, j := range arrived {
		seed.Entries = append(seed.Entries, schedule.Entry{Job: j, Start: maxStart + int64(i) + 1})
	}
	return seed
}
