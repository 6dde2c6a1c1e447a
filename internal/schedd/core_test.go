package schedd

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dynp"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/policy"
	"repro/internal/solvepipe"
)

func newScheduler(t *testing.T) *dynp.Scheduler {
	t.Helper()
	pols := []policy.Policy{policy.FCFS{}, policy.SJF{}, policy.LJF{}}
	m, err := metrics.ByName("SLDwA")
	if err != nil {
		t.Fatal(err)
	}
	s, err := dynp.New(pols, m, dynp.AdvancedDecider{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startCore builds and starts a core; the test is responsible for Stop.
func startCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	if cfg.Machine == 0 {
		cfg.Machine = 16
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = newScheduler(t)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Stop(ctx)
	})
	return c
}

// waitPlanned blocks until n jobs have been planned (or times out).
func waitPlanned(t *testing.T, c *Core, n int64) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := c.Snapshot()
		if s.Counts.Planned >= n {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d planned jobs (have %d)", n, c.Snapshot().Counts.Planned)
	return nil
}

func TestSubmitValidation(t *testing.T) {
	c := startCore(t, Config{Machine: 8, Clock: NewManualClock(0)})
	cases := []SubmitRequest{
		{Width: 0, Estimate: 10},
		{Width: 9, Estimate: 10},            // wider than machine
		{Width: 1, Estimate: 0},             // no estimate
		{Width: 1, Estimate: 5, Runtime: 9}, // runtime > estimate
	}
	for _, req := range cases {
		if _, err := c.Submit(req); err == nil {
			t.Errorf("Submit(%+v) accepted, want validation error", req)
		}
	}
	if _, err := c.Submit(SubmitRequest{Width: 1, Estimate: 10}); err != nil {
		t.Fatalf("valid submit rejected: %v", err)
	}
}

func TestSubmitPlanAndQuery(t *testing.T) {
	// MaxBatch 1 plus waiting between submissions pins the order: job 1
	// is running before job 2 is even admitted, so every policy plans
	// job 2 behind job 1's estimated end.
	c := startCore(t, Config{Machine: 4, Clock: NewManualClock(0), MaxBatch: 1})
	r1, err := c.Submit(SubmitRequest{Width: 4, Estimate: 100})
	if err != nil {
		t.Fatal(err)
	}
	waitPlanned(t, c, 1)
	r2, err := c.Submit(SubmitRequest{Width: 4, Estimate: 50})
	if err != nil {
		t.Fatal(err)
	}
	s := waitPlanned(t, c, 2)
	// Machine is full with job 1; job 2 must be planned behind it.
	st1, ok := c.Job(r1.ID)
	if !ok {
		t.Fatalf("job %d not found", r1.ID)
	}
	if st1.State != StateRunning {
		t.Errorf("job 1 state = %s, want running (planned at now)", st1.State)
	}
	st2, ok := c.Job(r2.ID)
	if !ok {
		t.Fatalf("job %d not found", r2.ID)
	}
	if st2.State != StateWaiting {
		t.Errorf("job 2 state = %s, want waiting", st2.State)
	}
	if st2.PlannedStart != 100 {
		t.Errorf("job 2 planned start = %d, want 100 (behind job 1's estimate)", st2.PlannedStart)
	}
	if st2.PlanLatencyMs < 0 {
		t.Errorf("job 2 plan latency unset")
	}
	if len(s.Schedule) != 1 || s.Schedule[0].JobID != r2.ID {
		t.Errorf("schedule = %+v, want exactly job 2", s.Schedule)
	}
	if _, ok := c.Job(999); ok {
		t.Error("unknown job id found")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	// A frozen manual clock plus MaxBatchDelay keeps the writer busy
	// long enough to overfill the bounded queue deterministically: the
	// first submission occupies the writer for the whole batch delay,
	// and the queue bound is hit behind it.
	c := startCore(t, Config{
		Machine:       8,
		Clock:         NewManualClock(0),
		QueueBound:    4,
		MaxBatch:      1, // batch of one: the delay applies per step
		MaxBatchDelay: 0,
	})
	// Saturate: the writer takes jobs one at a time; flood faster than
	// it can drain. With MaxBatch 1 the writer still plans quickly, so
	// use many submitters to guarantee overflow of a 4-slot queue.
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, full := 0, 0
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Submit(SubmitRequest{Width: 1, Estimate: 10})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				accepted++
			case err == ErrQueueFull:
				full++
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}()
	}
	wg.Wait()
	if accepted == 0 {
		t.Fatal("no submission accepted")
	}
	if full == 0 {
		t.Skip("queue never filled on this host (writer drained faster than 200 goroutines submitted)")
	}
	// Every accepted job must eventually be planned: none dropped.
	waitPlanned(t, c, int64(accepted))
}

func TestRateLimiting(t *testing.T) {
	c := startCore(t, Config{
		Machine:       8,
		Clock:         NewManualClock(0),
		RatePerSource: 0.001, // effectively one token, no refill in test time
		Burst:         2,
	})
	okA := 0
	var retryAfter time.Duration
	for i := 0; i < 5; i++ {
		_, err := c.Submit(SubmitRequest{Width: 1, Estimate: 10, Source: "a"})
		if err == nil {
			okA++
			continue
		}
		rl, ok := err.(*RateLimitedError)
		if !ok {
			t.Fatalf("want *RateLimitedError, got %v", err)
		}
		retryAfter = rl.RetryAfter
	}
	if okA != 2 {
		t.Errorf("source a: %d accepted, want burst of 2", okA)
	}
	if retryAfter <= 0 {
		t.Error("rate-limit rejection carries no Retry-After hint")
	}
	// An independent source has its own bucket.
	if _, err := c.Submit(SubmitRequest{Width: 1, Estimate: 10, Source: "b"}); err != nil {
		t.Errorf("source b rejected: %v", err)
	}
}

func TestBatchingReducesSteps(t *testing.T) {
	run := func(maxBatch int, delay time.Duration) (steps, planned int64) {
		reg := obs.NewRegistry()
		c := startCore(t, Config{
			Machine:       64,
			Clock:         NewManualClock(0),
			QueueBound:    512,
			MaxBatch:      maxBatch,
			MaxBatchDelay: delay,
			Metrics:       reg,
		})
		const n = 60
		for i := 0; i < n; i++ {
			if _, err := c.Submit(SubmitRequest{Width: 1 + i%4, Estimate: 1000}); err != nil {
				t.Fatal(err)
			}
		}
		s := waitPlanned(t, c, n)
		return s.Counts.Steps, s.Counts.Planned
	}
	stepsOff, _ := run(1, 0)
	stepsOn, _ := run(64, 20*time.Millisecond)
	if stepsOff != 60 {
		t.Errorf("batching off: %d steps, want one per submission (60)", stepsOff)
	}
	if stepsOn >= stepsOff/2 {
		t.Errorf("batching on: %d steps, want well below the %d of batching off", stepsOn, stepsOff)
	}
}

// A lone submission must not sit out a long coalescing window: the wait
// is capped by the cost of the pass it could save, which is
// milliseconds, not the configured second.
func TestLoneSubmissionSkipsLongBatchDelay(t *testing.T) {
	reg := obs.NewRegistry()
	c := startCore(t, Config{
		Machine:       8,
		Clock:         NewManualClock(0),
		MaxBatch:      64,
		MaxBatchDelay: time.Second,
		Metrics:       reg,
	})
	for i := 1; i <= 3; i++ {
		begin := time.Now()
		if _, err := c.Submit(SubmitRequest{Width: 1, Estimate: 10}); err != nil {
			t.Fatal(err)
		}
		waitPlanned(t, c, int64(i))
		if took := time.Since(begin); took > 250*time.Millisecond {
			t.Fatalf("submission %d planned after %v with MaxBatchDelay 1s, want well under 1s", i, took)
		}
	}
	if d := reg.Gauge("schedd.batch.delay.ms").Value(); d >= 1000 {
		t.Errorf("schedd.batch.delay.ms = %v, want below the 1000 ms cap", d)
	}
	if p := reg.Gauge("schedd.batch.pass.ms").Value(); p <= 0 {
		t.Errorf("schedd.batch.pass.ms = %v, want the measured pass cost", p)
	}
}

func TestBatchDelayCappedByPassCost(t *testing.T) {
	newCore := func(cfg Config) (*Core, *obs.Registry) {
		reg := obs.NewRegistry()
		cfg.Machine, cfg.Scheduler, cfg.Metrics = 8, newScheduler(t), reg
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c, reg
	}
	for _, tc := range []struct {
		name           string
		maxDelay, pass time.Duration
		want           time.Duration
	}{
		{"pass cost caps the wait", 10 * time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond},
		{"MaxBatchDelay caps a costly pass", 10 * time.Millisecond, 50 * time.Millisecond, 10 * time.Millisecond},
		{"no pass measured yet", 10 * time.Millisecond, 0, 0},
		{"zero delay stays zero", 0, 5 * time.Millisecond, 0},
	} {
		c, reg := newCore(Config{MaxBatchDelay: tc.maxDelay})
		c.passCost = tc.pass
		if got := c.batchDelay(); got != tc.want {
			t.Errorf("%s: batchDelay = %v, want %v", tc.name, got, tc.want)
		}
		if g := reg.Gauge("schedd.batch.delay.ms").Value(); g != float64(tc.want)/float64(time.Millisecond) {
			t.Errorf("%s: schedd.batch.delay.ms = %v, want %v", tc.name, g, tc.want)
		}
	}

	// Adaptive mode ignores the pass cost: with no arrival rate observed
	// yet it waits the full cap, as before.
	c, _ := newCore(Config{MaxBatch: 64, MaxBatchDelay: 2 * time.Second, AdaptiveBatch: true})
	c.passCost = time.Millisecond
	if got := c.batchDelay(); got != 2*time.Second {
		t.Errorf("adaptive: batchDelay = %v, want the 2s cap", got)
	}
	// An observed rate shortens it to the time to fill BatchSetpoint of
	// MaxBatch: 32 jobs at 1000/s is 32 ms.
	c.arrRate, c.lastArrWall, c.lastArrCount = 1000, time.Time{}, 0
	if got := c.batchDelay(); got != 32*time.Millisecond {
		t.Errorf("adaptive: batchDelay = %v at 1000 jobs/s, want 32ms", got)
	}
}

// notePass keeps an EWMA: one slow pass moves it a quarter of the way.
func TestNotePassEWMA(t *testing.T) {
	c := &Core{}
	c.notePass(8 * time.Millisecond)
	if c.passCost != 2*time.Millisecond {
		t.Fatalf("after one 8ms pass: %v, want 2ms", c.passCost)
	}
	for i := 0; i < 50; i++ {
		c.notePass(time.Millisecond)
	}
	if d := c.passCost - time.Millisecond; d < 0 || d > 10*time.Microsecond {
		t.Fatalf("after steady 1ms passes: %v, want ~1ms", c.passCost)
	}
}

func TestCompletionAndPullForward(t *testing.T) {
	// Accelerated wall clock: virtual seconds fly by at 2000/s, so the
	// short job below completes in a few wall milliseconds and the
	// replan pulls the waiting job forward.
	c := startCore(t, Config{Machine: 4, Clock: NewWallClock(2000), MaxBatch: 1})
	// Job 1 fills the machine; estimate far above runtime, so its
	// completion frees capacity long before the plan expected.
	r1, err := c.Submit(SubmitRequest{Width: 4, Estimate: 100000, Runtime: 100})
	if err != nil {
		t.Fatal(err)
	}
	waitPlanned(t, c, 1) // job 1 must be on the machine before job 2 arrives
	r2, err := c.Submit(SubmitRequest{Width: 4, Estimate: 1000, Runtime: 1000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st2, ok := c.Job(r2.ID)
		if ok && (st2.State == StateRunning || st2.State == StateDone) {
			if st2.Start >= 100000 {
				t.Errorf("job 2 started at %d: completion of job 1 did not pull it forward", st2.Start)
			}
			st1, _ := c.Job(r1.ID)
			if st1.State != StateDone {
				t.Errorf("job 1 state = %s, want done", st1.State)
			}
			s := c.Snapshot()
			if s.Counts.Replans == 0 {
				t.Error("no completion replan recorded")
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("job 2 never started")
}

func TestDrainPlansQueuedJobs(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{
		Machine:   16,
		Scheduler: newScheduler(t),
		Clock:     NewManualClock(0),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := c.Submit(SubmitRequest{Width: 1, Estimate: 60}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := c.Stop(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Draining {
		t.Error("final snapshot not marked draining")
	}
	if final.Counts.Planned != n {
		t.Errorf("drain planned %d of %d accepted jobs", final.Counts.Planned, n)
	}
	// After drain, submissions are rejected.
	if _, err := c.Submit(SubmitRequest{Width: 1, Estimate: 60}); err != ErrDraining {
		t.Errorf("submit after drain: err = %v, want ErrDraining", err)
	}
	// Stop is idempotent.
	again, err := c.Stop(context.Background())
	if err != nil || again != final {
		t.Errorf("second Stop = (%p, %v), want the first result (%p)", again, err, final)
	}
	if reg.Counter("schedd.rejects.draining").Value() == 0 {
		t.Error("draining rejection not counted")
	}
}

func TestILPStepDegradationSurfaced(t *testing.T) {
	// Every solve call fails: each step must degrade to the policy
	// schedule, stay up, and surface degraded=true with a reason.
	inj := faultinject.New(faultinject.NthCall{N: 1, Kind: faultinject.Infeasible})
	c := startCore(t, Config{
		Machine: 16,
		Clock:   NewManualClock(0),
		ILP: &ILPConfig{
			ILPConfig: plan.ILPConfig{Pipe: solvepipe.Config{
				Budget:  2 * time.Second,
				Retries: 1,
				MIP:     mip.Options{MaxNodes: 1000},
				Hook:    inj.Hook,
			}},
		},
	})
	r1, err := c.Submit(SubmitRequest{Width: 16, Estimate: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(SubmitRequest{Width: 16, Estimate: 300}); err != nil {
		t.Fatal(err)
	}
	s := waitPlanned(t, c, 2)
	if s.Counts.DegradedSteps == 0 {
		t.Fatal("no degraded step recorded under 100% fault injection")
	}
	if !s.Degraded {
		t.Error("snapshot not marked degraded")
	}
	if !strings.Contains(s.DegradedReason, "infeasible") {
		t.Errorf("degraded reason %q does not name the failure", s.DegradedReason)
	}
	if st, ok := c.Job(r1.ID); !ok || st.State == StateQueued {
		t.Errorf("job 1 not planned despite fallback (state %v)", st.State)
	}
}

func TestILPStepSolvesWhenHealthy(t *testing.T) {
	c := startCore(t, Config{
		Machine: 8,
		Clock:   NewManualClock(0),
		ILP: &ILPConfig{
			ILPConfig: plan.ILPConfig{Pipe: solvepipe.Config{
				Budget:  5 * time.Second,
				Retries: 1,
				MIP:     mip.Options{MaxNodes: 20000},
			}},
		},
	})
	for i := 0; i < 6; i++ {
		if _, err := c.Submit(SubmitRequest{Width: 1 + i%3, Estimate: int64(100 * (i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	s := waitPlanned(t, c, 6)
	if s.Degraded {
		t.Errorf("healthy ILP run degraded: %s", s.DegradedReason)
	}
}

func TestSnapshotConsistencyUnderLoad(t *testing.T) {
	// Readers hammer snapshots and job lookups while the writer plans;
	// run under -race this is the lock-free-read correctness test.
	c := startCore(t, Config{
		Machine:    32,
		Clock:      NewWallClock(500),
		QueueBound: 512,
		MaxBatch:   16,
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := c.Snapshot()
				if s == nil {
					t.Error("nil snapshot")
					return
				}
				for id := range s.Active {
					c.Job(id)
				}
				c.Job(1)
			}
		}()
	}
	const n = 120
	accepted := 0
	for i := 0; i < n; i++ {
		if _, err := c.Submit(SubmitRequest{Width: 1 + i%8, Estimate: int64(60 + i), Runtime: 30}); err == nil {
			accepted++
		}
		if i%10 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	waitPlanned(t, c, int64(accepted))
	close(stop)
	wg.Wait()
	// Every accepted job is visible through some read path.
	for id := 1; id <= accepted; id++ {
		if _, ok := c.Job(id); !ok {
			t.Errorf("accepted job %d invisible", id)
		}
	}
}

// When the step SLO guard declines the ILP schedule and serves the
// policy schedule, the declined plan must not seed the next step's
// solve: the reuse seed comes only from plans that were served. The
// control run without a deadline shows the observable works: there the
// served ILP plan seeds the next step and wins over the policy seed.
func TestGuardedStepDoesNotSeedReuse(t *testing.T) {
	for _, tc := range []struct {
		name      string
		deadline  int64
		guarded   bool
		wantReuse bool
	}{
		{"guarded", 105, true, false},
		{"served", 0, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			fcfs, err := dynp.New([]policy.Policy{policy.FCFS{}}, metrics.SLDwA{}, dynp.AdvancedDecider{})
			if err != nil {
				t.Fatal(err)
			}
			c := startCore(t, Config{
				Machine:   4,
				Scheduler: fcfs,
				Clock:     NewManualClock(0),
				MaxBatch:  1,
				Metrics:   reg,
				ILP: &ILPConfig{ILPConfig: plan.ILPConfig{Pipe: solvepipe.Config{
					Budget: 5 * time.Second,
					MIP:    mip.Options{MaxNodes: 20000},
				}}},
			})
			// A blocker holds the machine until 100. Behind it, FCFS keeps
			// the long job first (start 100, within its deadline) while
			// the ILP moves the short jobs ahead of it.
			reqs := []SubmitRequest{
				{Width: 4, Estimate: 100},
				{Width: 4, Estimate: 1000, Deadline: tc.deadline},
				{Width: 4, Estimate: 10},
				{Width: 4, Estimate: 10},
			}
			for i, req := range reqs {
				if _, err := c.Submit(req); err != nil {
					t.Fatal(err)
				}
				waitPlanned(t, c, int64(i+1))
			}
			if got := reg.Counter("schedd.steps.slo_guarded").Value(); (got > 0) != tc.guarded {
				t.Fatalf("slo_guarded = %d, want guarded=%v", got, tc.guarded)
			}
			last := c.Replans()[0] // the fourth step
			if last.Kind != "step" || last.QueueDepth != 3 {
				t.Fatalf("newest record = %+v, want the 3-job step", last)
			}
			if last.SeedReused != tc.wantReuse {
				t.Fatalf("step after the third: seed_reused = %v, want %v", last.SeedReused, tc.wantReuse)
			}
		})
	}
}
