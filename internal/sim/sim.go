// Package sim is the discrete event simulator of a planning-based
// resource management system (the paper's CCS) driven by the self-tuning
// dynP scheduler. At every job submission a self-tuning step replans the
// complete future resource usage with estimated durations; newly planned
// jobs whose start time equals the current instant begin executing
// immediately, so "backfilling is done implicitly". Jobs run for their
// *actual* runtime; when jobs finish early the plan is rebuilt with the
// active policy, once per completion instant, pulling waiting jobs
// forward — exactly the behaviour of a planning-based RMS.
//
// The simulator is an offline driver of the planning kernel
// (internal/plan), which owns the step itself: machine history, queue
// order, due starts and the ILP decision. The online service
// (internal/schedd) drives the same kernel, so both produce the same
// plan sequence on the same trace. The simulator keeps only its event
// queue and its bookkeeping: Result counters, StepFailure records, and
// the abort of an ILP-driven run that must not degrade.
package sim

import (
	"container/heap"
	"context"
	"fmt"

	"repro/internal/dynp"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/solvepipe"
)

// eventKind orders simultaneous events: completions free resources before
// plan-driven starts consume them, and submissions replan last.
type eventKind int

const (
	evEnd eventKind = iota
	evStart
	evSubmit
)

type event struct {
	time int64
	kind eventKind
	seq  int // FIFO tie-break for determinism
	job  *job.Job
	ver  int // plan version for evStart; stale starts are ignored
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].kind != q[j].kind {
		return q[i].kind < q[j].kind
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// CompletedJob records one finished job.
type CompletedJob struct {
	Job   *job.Job
	Start int64
	End   int64 // Start + actual runtime
}

// ResponseTime returns the actual response time End - Submit.
func (c CompletedJob) ResponseTime() int64 { return c.End - c.Job.Submit }

// WaitTime returns Start - Submit.
func (c CompletedJob) WaitTime() int64 { return c.Start - c.Job.Submit }

// Slowdown returns the actual slowdown (response / runtime).
func (c CompletedJob) Slowdown() float64 {
	return float64(c.ResponseTime()) / float64(c.Job.Runtime)
}

// StepContext is passed to the OnStep hook after every self-tuning step.
// It lets observers (the CPLEX-style comparator of internal/core) see the
// exact quasi off-line instance of the step without influencing the
// simulation, as the paper prescribes ("although these schedules are
// available, they are not used for the actual scheduling").
type StepContext struct {
	// Now is the step instant (the submission time).
	Now int64
	// Submitted is the job whose arrival triggered the step.
	Submitted *job.Job
	// Waiting is a snapshot of the waiting queue including Submitted.
	Waiting []*job.Job
	// Base is the machine profile of the running jobs (estimate-based),
	// i.e. the machine history of the step. Observers may clone it but
	// must not modify it.
	Base *machine.Profile
	// Result is the self-tuning outcome (all policy schedules and the
	// decider's choice).
	Result *dynp.StepResult
	// ILP, non-nil only in ILP-driven runs (Config.ILP), is the step's
	// ILP decision: its solve-pipeline outcome, and Failed when the step
	// degraded to the basic-policy schedule.
	ILP *plan.Decision
}

// StepFailure is the per-step failure provenance of an ILP-driven run:
// one record per step that fell back to the basic-policy schedule.
type StepFailure struct {
	// Time is the step instant.
	Time int64
	// Kind classifies the terminal failure of the retry ladder.
	Kind solvepipe.FailureKind
	// Attempts is the number of ladder rungs tried.
	Attempts int
	// Err is the terminal error text.
	Err string
}

// ILPConfig makes the simulation adopt solve-pipeline schedules: every
// self-tuning step goes through the planning kernel's ILP decision
// (plan.ILPConfig), and the compacted optimal schedule replaces the
// basic-policy schedule. (The paper computes these schedules
// observationally; this mode is the "what if CPLEX actually drove the
// machine" experiment, which is only viable with the fault tolerance
// this configuration provides.)
type ILPConfig struct {
	plan.ILPConfig
	// Fallback degrades a step whose ladder is exhausted to the chosen
	// basic-policy schedule (recorded in Result.Failures and the
	// "solve.fallback" trace event). When false such a step aborts the
	// simulation — only sensible in experiments that must not degrade.
	Fallback bool
}

// Reservation is an advance reservation (see plan.Reservation).
type Reservation = plan.Reservation

// Config parameterizes a simulation run.
type Config struct {
	// Machine is the processor count. If zero, the trace's count is used.
	Machine int
	// Reservations are advance reservations blocking capacity windows;
	// every plan is built around them.
	Reservations []Reservation
	// ReplanOnCompletion rebuilds the plan with the active policy once
	// every job finishing at an instant has completed (early completions
	// pull work forward). Planning-based systems do this; disable only
	// for experiments. Default true in New.
	ReplanOnCompletion bool
	// SelfTuneOnCompletion runs a full self-tuning step instead at
	// completion instants (the paper tunes only at submissions).
	// Default false.
	SelfTuneOnCompletion bool
	// OnStep, if non-nil, observes every self-tuning step.
	OnStep func(*StepContext)
	// ILP, if non-nil, drives every self-tuning step through the
	// fault-tolerant solve pipeline (see ILPConfig). Nil preserves the
	// paper's behaviour: the basic-policy schedule is always adopted.
	ILP *ILPConfig
	// MaxSteps aborts runaway simulations (0 = no limit).
	MaxSteps int
	// ParallelSteps makes every self-tuning step evaluate its candidate
	// policies concurrently (dynp.Scheduler.SetParallel). The simulated
	// results are identical — evaluations are independent and collected
	// positionally — it only changes wall-clock time.
	ParallelSteps bool
	// Trace, if non-nil, receives structured simulator events
	// (sim.submit, sim.start, sim.end, sim.replan, sim.selftune spans)
	// and is also attached to the scheduler (dynp.decision, dynp.switch).
	// Tracing never influences the simulation itself.
	Trace *obs.Tracer
	// Metrics, if non-nil, accumulates simulator counters and the
	// queue-depth histograms; it is also attached to the scheduler.
	Metrics *obs.Registry
}

// Result summarizes a simulation.
type Result struct {
	Completed []CompletedJob
	// Makespan is the end of the last job minus the first submission.
	Makespan int64
	// Steps and Switches are the dynP self-tuning statistics.
	Steps, Switches int
	// Replans counts plan rebuilds triggered by job completions (without
	// a self-tuning step): at most one per completion instant.
	Replans int
	// PolicyUse counts self-tuning decisions per policy name.
	PolicyUse map[string]int
	// MaxQueueDepth is the largest waiting-queue length seen at a
	// self-tuning step, and QueueDepthSum the sum over all steps (so
	// QueueDepthSum/Steps is the average the paper quotes as ~22 for CTC).
	MaxQueueDepth int
	QueueDepthSum int
	// ILPSteps counts the steps driven through the solve pipeline
	// (ILP-driven runs only); ILPFallbacks of them degraded to the
	// basic-policy schedule and ILPRetries sums the retry rungs taken.
	ILPSteps, ILPFallbacks, ILPRetries int
	// ILPCacheHits counts the ILP steps answered by the cross-step
	// solution cache without building or solving a model, and
	// ILPReusedIncumbents the steps whose branch-and-bound incumbent came
	// from the previous step's compacted schedule rather than the
	// basic-policy seed.
	ILPCacheHits, ILPReusedIncumbents int
	// Failures holds the per-step failure provenance of the fallbacks.
	Failures []StepFailure
}

// MeanQueueDepth returns the average waiting-queue length per
// self-tuning step.
func (r *Result) MeanQueueDepth() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.QueueDepthSum) / float64(r.Steps)
}

// MeanResponseTime returns the average actual response time in seconds.
func (r *Result) MeanResponseTime() float64 {
	if len(r.Completed) == 0 {
		return 0
	}
	var s float64
	for _, c := range r.Completed {
		s += float64(c.ResponseTime())
	}
	return s / float64(len(r.Completed))
}

// MeanWaitTime returns the average actual waiting time in seconds.
func (r *Result) MeanWaitTime() float64 {
	if len(r.Completed) == 0 {
		return 0
	}
	var s float64
	for _, c := range r.Completed {
		s += float64(c.WaitTime())
	}
	return s / float64(len(r.Completed))
}

// MeanSlowdown returns the average actual slowdown.
func (r *Result) MeanSlowdown() float64 {
	if len(r.Completed) == 0 {
		return 0
	}
	var s float64
	for _, c := range r.Completed {
		s += c.Slowdown()
	}
	return s / float64(len(r.Completed))
}

// SlowdownWeightedByArea returns the actual SLDwA over the completed jobs.
func (r *Result) SlowdownWeightedByArea() float64 {
	var s, a float64
	for _, c := range r.Completed {
		area := float64(c.Job.ActualArea())
		s += c.Slowdown() * area
		a += area
	}
	if a == 0 {
		return 0
	}
	return s / a
}

// Utilization returns used processor-seconds / (machine * makespan).
func (r *Result) Utilization(machineSize int) float64 {
	if r.Makespan <= 0 || machineSize <= 0 {
		return 0
	}
	var a float64
	for _, c := range r.Completed {
		a += float64(c.Job.ActualArea())
	}
	return a / (float64(machineSize) * float64(r.Makespan))
}

// Simulator runs a trace against a dynP scheduler.
type Simulator struct {
	cfg       Config
	scheduler *dynp.Scheduler
	kernel    *plan.Kernel

	ctx     context.Context
	clock   int64
	queue   eventQueue
	seq     int
	waiting map[int]*job.Job
	running map[int]*runningJob
	plan    map[int]int64 // waiting job ID -> planned start
	planVer int

	result Result

	// Observability sinks (all nil-safe no-ops when disabled).
	trace       *obs.Tracer
	cSubmits    *obs.Counter
	cStarts     *obs.Counter
	cEnds       *obs.Counter
	cReplans    *obs.Counter
	cFallbacks  *obs.Counter   // mip.fallbacks: ILP steps degraded to policy
	hQueueDepth *obs.Histogram // waiting-queue length per self-tuning step
	hEventDepth *obs.Histogram // event-loop (heap) depth per event
	// Labeled families of the ILP-driven path (bounded cardinality: the
	// label values are fixed outcome/failure-kind vocabularies).
	vStepOut  *obs.CounterVec // sim.step.outcome{outcome}: ok|cache_hit|fallback
	vFallback *obs.CounterVec // sim.fallback.by_cause{cause}: failure kind
}

type runningJob struct {
	job   *job.Job
	start int64
}

// Started implements plan.Started.
func (r *runningJob) Started() (*job.Job, int64) { return r.job, r.start }

// New creates a simulator for the trace. The scheduler is used for every
// planning decision. ReplanOnCompletion defaults to true when cfg is the
// zero value (pass a non-zero cfg to control it explicitly).
func New(t *job.Trace, s *dynp.Scheduler, cfg Config) (*Simulator, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %v", err)
	}
	if s == nil {
		return nil, fmt.Errorf("sim: nil scheduler")
	}
	total := cfg.Machine
	if total == 0 {
		total = t.Processors
	}
	if total <= 0 {
		return nil, fmt.Errorf("sim: machine size unknown (set Config.Machine or Trace.Processors)")
	}
	for _, j := range t.Jobs {
		if j.Width > total {
			return nil, fmt.Errorf("sim: %v wider than machine (%d)", j, total)
		}
	}
	kcfg := plan.Config{Machine: total, Reservations: cfg.Reservations, Metrics: cfg.Metrics}
	if cfg.ILP != nil {
		kcfg.ILP = &cfg.ILP.ILPConfig
	}
	k, err := plan.New(kcfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %v", err)
	}
	sim := &Simulator{
		cfg:       cfg,
		scheduler: s,
		kernel:    k,
		waiting:   map[int]*job.Job{},
		running:   map[int]*runningJob{},
		plan:      map[int]int64{},
	}
	sim.result.PolicyUse = map[string]int{}
	sim.trace = cfg.Trace
	if reg := cfg.Metrics; reg != nil {
		depthBounds := []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
		sim.cSubmits = reg.Counter("sim.submits")
		sim.cStarts = reg.Counter("sim.starts")
		sim.cEnds = reg.Counter("sim.completions")
		sim.cReplans = reg.Counter("sim.replans")
		sim.cFallbacks = reg.Counter("mip.fallbacks")
		sim.hQueueDepth = reg.Histogram("sim.queue_depth", depthBounds)
		sim.hEventDepth = reg.Histogram("sim.event_loop_depth", depthBounds)
		sim.vStepOut = reg.CounterVec("sim.step.outcome", "outcome")
		sim.vFallback = reg.CounterVec("sim.fallback.by_cause", "cause")
	}
	if cfg.Trace != nil || cfg.Metrics != nil {
		s.SetObs(cfg.Trace, cfg.Metrics)
	}
	if cfg.ParallelSteps {
		s.SetParallel(true)
	}
	for _, j := range t.Jobs {
		sim.push(event{time: j.Submit, kind: evSubmit, job: j})
	}
	return sim, nil
}

func (s *Simulator) push(e event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.queue, e)
}

// adoptPlan installs a new full schedule: it reports it to the kernel
// as served (d is the ILP decision it answers, nil for a replan),
// records planned starts, enqueues start events, and immediately starts
// jobs planned for now.
func (s *Simulator) adoptPlan(d *plan.Decision, sch *schedule.Schedule) {
	s.kernel.Serve(s.trace, s.clock, d, sch)
	s.planVer++
	s.plan = make(map[int]int64, len(sch.Entries))
	for _, e := range sch.Entries {
		s.plan[e.Job.ID] = e.Start
		if e.Start > s.clock {
			s.push(event{time: e.Start, kind: evStart, job: e.Job, ver: s.planVer})
		}
	}
	s.startDueJobs()
}

// startDueJobs starts every waiting job whose planned start is <= clock.
func (s *Simulator) startDueJobs() {
	for _, j := range plan.Due(s.plan, s.waiting, s.clock) {
		delete(s.waiting, j.ID)
		delete(s.plan, j.ID)
		s.running[j.ID] = &runningJob{job: j, start: s.clock}
		s.push(event{time: s.clock + j.Runtime, kind: evEnd, job: j})
		s.cStarts.Inc()
		s.trace.Emit("sim.start",
			obs.Int("vt", s.clock),
			obs.Int("job", int64(j.ID)),
			obs.Int("width", int64(j.Width)),
			obs.Int("wait", s.clock-j.Submit))
	}
}

// selfTune runs a self-tuning step and adopts the chosen schedule.
func (s *Simulator) selfTune(submitted *job.Job) error {
	base, err := plan.Base(s.kernel, s.clock, s.running)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	waiting := plan.Waiting(s.waiting)
	s.hQueueDepth.Observe(float64(len(waiting)))
	span := s.trace.StartSpan("sim.selftune",
		obs.Int("vt", s.clock),
		obs.Int("queue_depth", int64(len(waiting))))
	res, err := s.scheduler.Step(s.clock, base, waiting)
	if err != nil {
		span.End(obs.Str("status", "error"))
		return err
	}
	span.End(obs.Str("chosen", res.Chosen.Name()), obs.Bool("switched", res.Switched))
	s.result.Steps++
	if res.Switched {
		s.result.Switches++
	}
	s.result.PolicyUse[res.Chosen.Name()]++
	s.result.QueueDepthSum += len(waiting)
	if len(waiting) > s.result.MaxQueueDepth {
		s.result.MaxQueueDepth = len(waiting)
	}
	adopt := res.Schedule
	var d *plan.Decision
	if s.cfg.ILP != nil {
		d = s.kernel.Solve(s.ctx, s.trace, s.clock, res, waiting, base)
		if err := s.account(d); err != nil {
			return err
		}
		if d.Schedule != nil {
			adopt = d.Schedule
		}
	}
	if s.cfg.OnStep != nil {
		s.cfg.OnStep(&StepContext{
			Now: s.clock, Submitted: submitted, Waiting: waiting,
			Base: base, Result: res, ILP: d,
		})
	}
	s.adoptPlan(d, adopt)
	return nil
}

// account books one step's ILP decision into the result and metrics.
// A failed step degrades to the chosen basic-policy schedule
// (Config.ILP.Fallback) or aborts the run; a canceled solve always
// aborts.
func (s *Simulator) account(d *plan.Decision) error {
	out := d.Outcome
	if out == nil {
		return nil // every waiting job starts now
	}
	s.result.ILPSteps++
	s.result.ILPRetries += out.Retries()
	if out.CacheHit {
		s.result.ILPCacheHits++
	}
	if out.IncumbentReused {
		s.result.ILPReusedIncumbents++
	}
	switch {
	case !d.Failed() && out.CacheHit:
		s.vStepOut.With("cache_hit").Inc()
		return nil
	case !d.Failed():
		s.vStepOut.With("ok").Inc()
		return nil
	case d.Failure == solvepipe.FailCanceled:
		return fmt.Errorf("sim: step at %d: %w", s.clock, d.Err)
	case !s.cfg.ILP.Fallback:
		return fmt.Errorf("sim: step at %d: solve pipeline failed: %w", s.clock, d.Err)
	}
	s.result.ILPFallbacks++
	s.cFallbacks.Inc()
	s.vStepOut.With("fallback").Inc()
	s.vFallback.With(d.Failure.String()).Inc()
	s.result.Failures = append(s.result.Failures, StepFailure{
		Time: s.clock, Kind: d.Failure, Attempts: len(out.Attempts),
		Err: d.Err.Error(),
	})
	return nil
}

// replan rebuilds the plan with the active policy, without self-tuning.
func (s *Simulator) replan() error {
	base, err := plan.Base(s.kernel, s.clock, s.running)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	s.result.Replans++
	s.cReplans.Inc()
	s.trace.Emit("sim.replan",
		obs.Int("vt", s.clock),
		obs.Int("queue_depth", int64(len(s.waiting))),
		obs.Str("policy", s.scheduler.Current().Name()))
	sch, err := s.scheduler.Reschedule(s.clock, base, plan.Waiting(s.waiting))
	if err != nil {
		return err
	}
	s.adoptPlan(nil, sch)
	return nil
}

// Run executes the whole trace and returns the result.
func (s *Simulator) Run() (*Result, error) {
	return s.RunCtx(context.Background())
}

// cancelCheckEvery is the event interval between context checks in the
// run loop (the per-step solves check far more often via the pipeline).
const cancelCheckEvery = 64

// RunCtx is Run with cooperative cancellation: a done context stops the
// event loop at the next counter-gated checkpoint and hard-aborts any
// in-flight per-step solve.
func (s *Simulator) RunCtx(ctx context.Context) (*Result, error) {
	s.ctx = ctx
	var firstSubmit, lastEnd int64 = -1, 0
	steps := 0
	for s.queue.Len() > 0 {
		if steps%cancelCheckEvery == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("sim: run canceled: %w", context.Cause(ctx))
		}
		s.hEventDepth.Observe(float64(s.queue.Len()))
		e := heap.Pop(&s.queue).(event)
		if e.time < s.clock {
			return nil, fmt.Errorf("sim: time went backwards (%d < %d)", e.time, s.clock)
		}
		s.clock = e.time
		switch e.kind {
		case evEnd:
			r, ok := s.running[e.job.ID]
			if !ok {
				return nil, fmt.Errorf("sim: completion for job %d which is not running", e.job.ID)
			}
			delete(s.running, e.job.ID)
			done := CompletedJob{Job: r.job, Start: r.start, End: s.clock}
			s.result.Completed = append(s.result.Completed, done)
			s.cEnds.Inc()
			s.trace.Emit("sim.end",
				obs.Int("vt", s.clock),
				obs.Int("job", int64(r.job.ID)),
				obs.Int("response", done.ResponseTime()),
				obs.Int("wait", done.WaitTime()))
			if s.clock > lastEnd {
				lastEnd = s.clock
			}
			if q := s.queue; q.Len() > 0 && q[0].time == s.clock && q[0].kind == evEnd {
				break // more jobs finish now: replan once, after the last
			}
			if len(s.waiting) > 0 {
				if s.cfg.SelfTuneOnCompletion {
					if err := s.selfTune(nil); err != nil {
						return nil, err
					}
				} else if s.cfg.ReplanOnCompletion {
					if err := s.replan(); err != nil {
						return nil, err
					}
				}
			}
		case evStart:
			if e.ver != s.planVer {
				continue // superseded plan
			}
			s.startDueJobs()
		case evSubmit:
			if firstSubmit < 0 {
				firstSubmit = s.clock
			}
			s.waiting[e.job.ID] = e.job
			s.cSubmits.Inc()
			s.trace.Emit("sim.submit",
				obs.Int("vt", s.clock),
				obs.Int("job", int64(e.job.ID)),
				obs.Int("width", int64(e.job.Width)),
				obs.Int("estimate", e.job.Estimate))
			if err := s.selfTune(e.job); err != nil {
				return nil, err
			}
		}
		steps++
		if s.cfg.MaxSteps > 0 && steps > s.cfg.MaxSteps {
			return nil, fmt.Errorf("sim: exceeded MaxSteps=%d", s.cfg.MaxSteps)
		}
	}
	if len(s.waiting) > 0 || len(s.running) > 0 {
		return nil, fmt.Errorf("sim: finished with %d waiting and %d running jobs",
			len(s.waiting), len(s.running))
	}
	if firstSubmit < 0 {
		firstSubmit = 0
	}
	s.result.Makespan = lastEnd - firstSubmit
	out := s.result
	return &out, nil
}

// DefaultConfig returns the paper's configuration: replan on completion,
// self-tune only at submissions.
func DefaultConfig() Config {
	return Config{ReplanOnCompletion: true}
}
