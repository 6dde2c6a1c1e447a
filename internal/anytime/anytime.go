// Package anytime is the background anytime-optimizer core: it runs the
// parallel branch and bound continuously instead of per replan interval,
// streaming every strictly improving, validated incumbent out through a
// lock-free atomic pointer the moment the solver finds it.
//
// The serving loop (internal/schedd) and the core form a producer/
// consumer pair with no locks on either hot path:
//
//   - the writer loop pushes an immutable Problem (instance + seed +
//     fingerprint) after every state mutation via Update — latest wins,
//     and a stale in-flight solve is preempted cooperatively through
//     mip.Options.Stop at the solver's own counter-gated checkpoint;
//   - the solve goroutine publishes each improved incumbent as a Plan
//     through an atomic.Pointer and fires the Notify hook (a nonblocking
//     channel nudge in schedd), so the writer adopts improvements at its
//     own pace without the solver ever blocking on it.
//
// Staleness is handled at the consumer: every Plan carries the
// fingerprint and virtual time of the Problem it was solved against, and
// the writer refuses any plan whose fingerprint no longer matches the
// queue state it just pushed (see schedd's adoption path). The core
// itself only guarantees that a Plan was feasible and strictly improving
// for the Problem it names.
package anytime

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/ilpsched"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/solvepipe"
)

// Problem is one immutable scheduling problem pushed by the serving
// loop. The zero Problem (nil Inst) idles the core: it preempts any
// in-flight solve and waits for the next Update.
type Problem struct {
	// Inst is the full time-indexed instance (base profile of running
	// jobs, waiting jobs, horizon). The core never mutates it; the
	// pusher must not either once pushed.
	Inst *ilpsched.Instance
	// Seed is the currently adopted plan restricted to the instance's
	// jobs — the warm-start incumbent every solve session begins from,
	// which also makes the first streamed incumbent a known-feasible
	// baseline to improve on.
	Seed *schedule.Schedule
	// Fingerprint is solvepipe.Fingerprint(Inst), computed by the
	// pusher so producer and consumer agree on the staleness key.
	Fingerprint uint64
	// Now is Inst.Now, hoisted so consumers can reject a plan solved at
	// a different virtual time without touching the instance.
	Now int64
}

// Plan is one published incumbent: a feasible compacted schedule for the
// Problem identified by (Fingerprint, Now), strictly better than every
// earlier Plan of the same solve session.
type Plan struct {
	// Fingerprint and Now name the Problem this plan solves.
	Fingerprint uint64
	Now         int64
	// Schedule is the §3.2-compacted schedule covering exactly the
	// problem's jobs.
	Schedule *schedule.Schedule
	// Objective is the Eq. 2 objective of Schedule (weighted response
	// sum of the compacted entries — directly comparable with
	// ilpsched.ObjectiveOfSchedule of a competing plan).
	Objective float64
	// Seq increments with every published plan across all sessions, so
	// a consumer can cheaply skip plans it has already inspected.
	Seq int64
	// FoundAfter is how long into the solve session the incumbent
	// appeared.
	FoundAfter time.Duration
}

// Config parameterizes the core.
type Config struct {
	// Pipe is the solve-pipeline configuration (scaling, MIP options,
	// presolve). Budget bounds ONE solve session; a session also ends
	// early when Update preempts it or the search proves optimality.
	Pipe solvepipe.Config
	// Trace and Metrics are the observability sinks (nil-safe).
	Trace   *obs.Tracer
	Metrics *obs.Registry
	// Notify, if non-nil, is called after every published Plan — on the
	// solver's worker goroutine, so it must be fast and must never
	// block (schedd passes a nonblocking channel send).
	Notify func()
	// OnSessionEnd, if non-nil, is called when a solve session returns —
	// optimality proven, budget exhausted, or preempted by a newer
	// Update. Runs on the solve goroutine; same rules as Notify.
	OnSessionEnd func()
}

// Core runs the continuous optimizer. Create with New, feed with
// Update, read with Best, stop with Stop.
type Core struct {
	cfg     Config
	updates chan Problem
	stopCh  chan struct{}
	done    chan struct{}
	started atomic.Bool

	// gen increments on every Update; an in-flight solve stops as soon
	// as it observes a generation newer than its own.
	gen  atomic.Int64
	seq  atomic.Int64
	best atomic.Pointer[Plan]

	cSolves    *obs.Counter
	cPreempted *obs.Counter
	cFound     *obs.Counter
}

// New creates a stopped core.
func New(cfg Config) *Core {
	c := &Core{
		cfg: cfg,
		// Capacity 1 + latest-wins drain in the loop: Update never
		// blocks the writer and never queues history.
		updates: make(chan Problem, 1),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	if reg := cfg.Metrics; reg != nil {
		c.cSolves = reg.Counter("anytime.solves")
		c.cPreempted = reg.Counter("anytime.solves.preempted")
		c.cFound = reg.Counter("anytime.incumbents.found")
	}
	return c
}

// Start launches the solve loop. It must be called exactly once.
func (c *Core) Start() {
	if !c.started.CompareAndSwap(false, true) {
		panic("anytime: Start called twice")
	}
	go c.run()
}

// Update hands the core the latest problem, preempting any in-flight
// solve of an older one. Latest wins: if the core is still busy when the
// next Update arrives, the intermediate problem is simply skipped. Never
// blocks; safe for concurrent use (though schedd calls it from the one
// writer goroutine).
func (c *Core) Update(p Problem) {
	c.gen.Add(1)
	for {
		select {
		case c.updates <- p:
			return
		default:
		}
		// Channel full: displace the stale queued problem.
		select {
		case <-c.updates:
		default:
		}
	}
}

// Best returns the most recently published plan (nil before the first).
// The consumer must check Fingerprint/Now against its own state before
// adopting — the core keeps publishing for the problem a solve session
// started with even while a newer Update is waiting.
func (c *Core) Best() *Plan { return c.best.Load() }

// Stop preempts any in-flight solve and waits for the loop to exit.
// Safe to call once after Start.
func (c *Core) Stop() {
	close(c.stopCh)
	if c.started.Load() {
		<-c.done
	} else {
		close(c.done)
	}
}

func (c *Core) run() {
	defer close(c.done)
	for {
		select {
		case <-c.stopCh:
			return
		case p := <-c.updates:
			// Drain to the freshest problem before burning solver time.
			for {
				select {
				case p2 := <-c.updates:
					p = p2
					continue
				default:
				}
				break
			}
			c.solve(p)
		}
	}
}

// solve runs one session over a problem, publishing every strictly
// improving incumbent. Returns when the search finishes (optimal, budget
// exhausted) or a newer generation preempts it.
func (c *Core) solve(p Problem) {
	if p.Inst == nil || len(p.Inst.Jobs) == 0 {
		return
	}
	myGen := c.gen.Load()
	stop := func() bool {
		select {
		case <-c.stopCh:
			return true
		default:
		}
		return c.gen.Load() != myGen
	}
	pipe := c.cfg.Pipe
	if pipe.Trace == nil {
		pipe.Trace = c.cfg.Trace
	}
	if pipe.Metrics == nil {
		pipe.Metrics = c.cfg.Metrics
	}
	pipe.Seed = p.Seed
	c.cSolves.Inc()
	start := time.Now()
	out := solvepipe.SolveAnytime(context.Background(), pipe, p.Inst, stop, func(inc solvepipe.AnytimeIncumbent) {
		c.publishPlan(p, inc)
	})
	preempted := c.gen.Load() != myGen
	if preempted {
		c.cPreempted.Inc()
	}
	c.cfg.Trace.Emit("anytime.session",
		obs.Int("vt", p.Now),
		obs.Int("jobs", int64(len(p.Inst.Jobs))),
		obs.Bool("preempted", preempted),
		obs.Bool("solved", !out.Failed()),
		obs.Float("dur_ms", float64(time.Since(start))/float64(time.Millisecond)))
	if c.cfg.OnSessionEnd != nil {
		c.cfg.OnSessionEnd()
	}
}

// publishPlan validates and publishes one streamed incumbent. Runs on a
// solver worker goroutine under the solver's incumbent lock: everything
// here is cheap (one validate over the entries) and lock-free towards
// the consumer.
func (c *Core) publishPlan(p Problem, inc solvepipe.AnytimeIncumbent) {
	sch := inc.Solution.Compacted
	if sch == nil || len(sch.Entries) == 0 {
		return
	}
	// The solver already decoded a feasible grid solution and compacted
	// it against the instance base; re-validate anyway so a plan that
	// escapes this core is feasible by construction, never by trust.
	if err := sch.Validate(p.Inst.Base); err != nil {
		c.cfg.Trace.Emit("anytime.incumbent.invalid", obs.Str("err", err.Error()))
		return
	}
	obj := ilpsched.ObjectiveOfSchedule(sch)
	if prev := c.best.Load(); prev != nil &&
		prev.Fingerprint == p.Fingerprint && prev.Now == p.Now && obj >= prev.Objective {
		// Compaction can flatten two distinct grid incumbents onto equal
		// schedules; only strictly better plans are worth a nudge.
		return
	}
	plan := &Plan{
		Fingerprint: p.Fingerprint,
		Now:         p.Now,
		Schedule:    sch,
		Objective:   obj,
		Seq:         c.seq.Add(1),
		FoundAfter:  inc.At,
	}
	c.best.Store(plan)
	c.cFound.Inc()
	c.cfg.Trace.Emit("anytime.incumbent",
		obs.Int("vt", p.Now),
		obs.Int("plan_seq", plan.Seq),
		obs.Float("objective", obj),
		obs.Float("found_ms", float64(inc.At)/float64(time.Millisecond)))
	if c.cfg.Notify != nil {
		c.cfg.Notify()
	}
}
