package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynp"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/schedd"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/workload"
)

// serveSpec is one open-loop serving workload.
type serveSpec struct {
	name   string
	rate   float64 // offered submissions per wall second
	shards int     // 1 serves from a single in-memory core
	wal    bool    // write-ahead log with default group commit, no fsync
	reads  bool    // a job read after every submission, a schedule read every schedEvery
	// load scales the CTC arrival rate in virtual time: above 1 the
	// machine is over-subscribed and the waiting queue grows.
	load float64
}

// schedEvery is how many submissions pass between two schedule reads.
const schedEvery = 20

// opHeader carries the operation index from the driver to the handler
// middleware, so the traced run can pair client and handler spans.
const opHeader = "X-Bench-Op"

type opKind int

const (
	opSubmit opKind = iota
	opGetJob
	opGetSchedule
)

// op is one scheduled request.
type op struct {
	kind opKind
	due  time.Duration
	job  *job.Job // submit payload
	pick float64  // read target: this fraction into the accepted jobs
}

// outcome is what the client got back for one op.
type outcome struct {
	status int
	err    error
	id     int // job ID of an accepted submission
}

// newPolicyScheduler is the cmd/schedd default scheduler: self-tuning
// FCFS/SJF/LJF under SLDwA with the advanced decider.
func newPolicyScheduler() *dynp.Scheduler {
	return dynp.MustNew([]policy.Policy{policy.FCFS{}, policy.SJF{}, policy.LJF{}}, metrics.SLDwA{}, dynp.AdvancedDecider{})
}

// buildOps turns a compressed CTC trace into the request schedule.
func buildOps(spec serveSpec, seed uint64, seconds float64) ([]op, float64, error) {
	cfg := workload.CTC()
	cfg.MeanInterarrival /= spec.load
	n := int(spec.rate * seconds)
	tr, err := workload.Generate(cfg, n, seed)
	if err != nil {
		return nil, 0, err
	}
	// Virtual seconds per wall second, so the trace's mean interarrival
	// is 1/rate wall seconds; the service clock runs at the same pace.
	accel := cfg.MeanInterarrival * spec.rate
	rng := rand.New(rand.NewSource(int64(seed)))
	t0 := tr.Jobs[0].Submit
	due := func(i int) time.Duration {
		return time.Duration(float64(tr.Jobs[i].Submit-t0) / accel * float64(time.Second))
	}
	var ops []op
	for i, j := range tr.Jobs {
		ops = append(ops, op{kind: opSubmit, due: due(i), job: j})
		if !spec.reads {
			continue
		}
		gap := time.Second / time.Duration(spec.rate)
		if i+1 < len(tr.Jobs) {
			gap = due(i+1) - due(i)
		}
		ops = append(ops, op{kind: opGetJob, due: due(i) + gap/3, pick: rng.Float64()})
		if i%schedEvery == schedEvery-1 {
			ops = append(ops, op{kind: opGetSchedule, due: due(i) + 2*gap/3})
		}
	}
	return ops, accel, nil
}

// eventLog records, from the event sink or stream, when each job was
// first planned and when snapshots were published.
type eventLog struct {
	mu        sync.Mutex
	planned   map[int]time.Duration
	shardOf   map[int]int
	dups      int
	publishes []time.Duration
}

func newEventLog() *eventLog {
	return &eventLog{planned: map[int]time.Duration{}, shardOf: map[int]int{}}
}

func (l *eventLog) jobPlanned(id, shardIdx int) {
	t := now()
	l.mu.Lock()
	if _, ok := l.planned[id]; ok {
		l.dups++
	} else {
		l.planned[id] = t
		l.shardOf[id] = shardIdx
	}
	l.mu.Unlock()
}

func (l *eventLog) published() {
	t := now()
	l.mu.Lock()
	l.publishes = append(l.publishes, t)
	l.mu.Unlock()
}

func (l *eventLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.planned)
}

// coreSink adapts the log to a single core's schedd.EventSink.
type coreSink struct{ log *eventLog }

func (s coreSink) SnapshotPublished(*schedd.Snapshot)  { s.log.published() }
func (s coreSink) JobPlanned(st schedd.JobStatus)      { s.log.jobPlanned(st.ID, 0) }
func (s coreSink) JobCompleted(schedd.JobStatus)       {}
func (s coreSink) PlanImproved(schedd.PlanImprovement) {}

// handlerLog is the middleware around the public handler: per op, when
// the handler ran and how many response bytes it wrote.
type handlerLog struct {
	start, end, bytes []atomic.Int64
}

func newHandlerLog(n int) *handlerLog {
	return &handlerLog{start: make([]atomic.Int64, n), end: make([]atomic.Int64, n), bytes: make([]atomic.Int64, n)}
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (h *handlerLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil || i < 0 || i >= len(h.start) {
			next.ServeHTTP(w, r)
			return
		}
		s := now()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		h.start[i].Store(int64(s))
		h.end[i].Store(int64(now()))
		h.bytes[i].Store(cw.n)
	})
}

// rig is one running service with its client.
type rig struct {
	spec     serveSpec
	core     *schedd.Core
	router   *shard.Router
	regs     []*obs.Registry // per-core registries, then the router's
	wals     []*wal.Log
	walDir   string
	srv      *http.Server
	base     string
	client   *http.Client
	events   *eventLog
	sub      *shard.Subscription
	subDone  chan struct{}
	hlog     *handlerLog
	machines []int // each core's processor count, in core order
	serveWG  sync.WaitGroup
}

// startRig starts the service and warms one connection per sender.
func startRig(spec serveSpec, accel float64, nops int, traced bool, dir string, senders int) (*rig, error) {
	r := &rig{spec: spec, events: newEventLog()}
	newCore := func(idx, machineSize int) (schedd.Config, error) {
		reg := obs.NewRegistry()
		r.regs = append(r.regs, reg)
		c := schedd.Config{
			Machine:       machineSize,
			Scheduler:     newPolicyScheduler(),
			Clock:         schedd.NewWallClock(accel),
			QueueBound:    256,
			MaxBatch:      64,
			MaxBatchDelay: 10 * time.Millisecond,
			Metrics:       reg,
			SnapshotEvery: 1024,
		}
		if spec.wal {
			// The admission bound holds the whole offered backlog inside
			// the service, so a slow writer shows as latency, not 429s.
			c.QueueBound = nops
			// NoSync: fsync on a shared disk swings from run to run by
			// more than any bound the benchmark may set (see README.md);
			// framing, the hash chain, group-commit batching and
			// snapshots still run.
			walLog, rec, err := wal.Open(wal.Options{Dir: filepath.Join(r.walDir, fmt.Sprintf("shard-%d", idx)), FsyncEvery: 64, NoSync: true, Metrics: reg})
			if err != nil {
				return c, err
			}
			r.wals = append(r.wals, walLog)
			c.WAL, c.Recovery = walLog, rec
		}
		return c, nil
	}
	if spec.wal {
		d, err := os.MkdirTemp(dir, "wal-")
		if err != nil {
			return nil, err
		}
		r.walDir = d
	}
	var handler http.Handler
	if spec.shards > 1 {
		routerReg := obs.NewRegistry()
		router, err := shard.New(shard.Config{
			Shards: spec.shards, Machine: 430, WideLane: 256,
			Factory: newCore, Metrics: routerReg,
			SubscriberBuffer: 4*nops + 1024,
		})
		if err != nil {
			r.cleanup()
			return nil, err
		}
		r.router = router
		r.regs = append(r.regs, routerReg)
		r.sub = router.Hub().Subscribe(map[string]bool{shard.EventJobPlanned: true, shard.EventPlanVersion: true})
		r.subDone = make(chan struct{})
		go func() {
			defer close(r.subDone)
			for ev := range r.sub.Events() {
				if ev.Type == shard.EventJobPlanned && ev.Job != nil {
					r.events.jobPlanned(ev.Job.ID, ev.Shard)
				} else if ev.Type == shard.EventPlanVersion {
					r.events.published()
				}
			}
		}()
		router.Start()
		r.machines = router.Machines()
		handler = shard.NewHandler(router)
	} else {
		cfg, err := newCore(0, 430)
		if err != nil {
			r.cleanup()
			return nil, err
		}
		cfg.Events = coreSink{r.events}
		core, err := schedd.New(cfg)
		if err != nil {
			r.cleanup()
			return nil, err
		}
		r.core = core
		r.machines = []int{core.Machine()}
		core.Start()
		handler = schedd.NewHandler(core)
	}
	if traced {
		r.hlog = newHandlerLog(nops)
		handler = r.hlog.wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_, _ = r.stop() // the start error is the one to report
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.srv = &http.Server{Handler: handler}
	r.serveWG.Add(1)
	go func() {
		defer r.serveWG.Done()
		_ = r.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	r.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
	// Warm one connection per sender, and wait until recovery (an empty
	// WAL replays instantly) has made every core ready.
	var wg sync.WaitGroup
	errs := make([]error, senders)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = r.waitReady()
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		_, _ = r.stop() // the start error is the one to report
		return nil, err
	}
	return r, nil
}

func (r *rig) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := r.client.Get(r.base + "/v1/healthz")
		if err != nil {
			return err
		}
		var h schedd.HealthJSON
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err == nil && h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service not ready: status %q, err %v", h.Status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the service and returns the final per-core snapshots.
func (r *rig) stop() ([]*schedd.Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var snaps []*schedd.Snapshot
	var err error
	if r.client != nil {
		// First, so the server sees the close of every connection the
		// transport dialled but never used: Shutdown waits five seconds
		// for a connection that has not sent a request yet.
		r.client.CloseIdleConnections()
	}
	if r.srv != nil {
		err = errors.Join(err, r.srv.Shutdown(ctx))
		r.serveWG.Wait()
	}
	if r.router != nil {
		_, serr := r.router.Stop(ctx)
		err = errors.Join(err, serr)
		for i := 0; i < r.router.Shards(); i++ {
			snaps = append(snaps, r.router.Core(i).Snapshot())
		}
		r.sub.Close()
		<-r.subDone
	}
	if r.core != nil {
		snap, serr := r.core.Stop(ctx)
		err = errors.Join(err, serr)
		snaps = append(snaps, snap)
	}
	r.cleanup()
	return snaps, err
}

func (r *rig) cleanup() {
	for _, w := range r.wals {
		_ = w.Close() // the log is deleted right after
	}
	r.wals = nil
	if r.walDir != "" {
		_ = os.RemoveAll(r.walDir)
		r.walDir = ""
	}
}

// snapshots returns every core's current snapshot.
func (r *rig) snapshots() []*schedd.Snapshot {
	if r.core != nil {
		return []*schedd.Snapshot{r.core.Snapshot()}
	}
	var out []*schedd.Snapshot
	for i := 0; i < r.router.Shards(); i++ {
		out = append(out, r.router.Core(i).Snapshot())
	}
	return out
}

// serveRun is one measured open-loop run: its inputs and what it saw.
type serveRun struct {
	spec     serveSpec
	ops      []op
	out      []outcome
	loop     *loopResult
	startOff time.Duration // run start as an offset from the epoch
	rig      *rig

	mu       sync.Mutex
	accepted []int
}

func (s *serveRun) send(i int) {
	o := &s.ops[i]
	var req *http.Request
	var err error
	switch o.kind {
	case opSubmit:
		body, _ := json.Marshal(schedd.SubmitJSON{Width: o.job.Width, Estimate: o.job.Estimate, Runtime: o.job.Runtime})
		req, err = http.NewRequest(http.MethodPost, s.rig.base+"/v1/jobs", bytes.NewReader(body))
	case opGetJob:
		s.mu.Lock()
		n := len(s.accepted)
		id := -1
		if n > 0 {
			id = s.accepted[int(o.pick*float64(n))]
		}
		s.mu.Unlock()
		if id < 0 {
			o.kind = opGetSchedule // nothing accepted yet to read back
			req, err = http.NewRequest(http.MethodGet, s.rig.base+"/v1/schedule", nil)
		} else {
			req, err = http.NewRequest(http.MethodGet, s.rig.base+"/v1/jobs/"+strconv.Itoa(id), nil)
		}
	case opGetSchedule:
		req, err = http.NewRequest(http.MethodGet, s.rig.base+"/v1/schedule", nil)
	}
	if err != nil {
		s.out[i].err = err
		return
	}
	if s.rig.hlog != nil {
		req.Header.Set(opHeader, strconv.Itoa(i))
	}
	resp, err := s.rig.client.Do(req)
	if err != nil {
		s.out[i].err = err
		return
	}
	defer resp.Body.Close()
	s.out[i].status = resp.StatusCode
	if o.kind != opSubmit || resp.StatusCode != http.StatusAccepted {
		_, s.out[i].err = io.Copy(io.Discard, resp.Body)
		return
	}
	var sr schedd.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		s.out[i].err = err
		return
	}
	s.out[i].id = sr.ID
	s.mu.Lock()
	s.accepted = append(s.accepted, sr.ID)
	s.mu.Unlock()
}

// serveSGMShift is the shift of the planned latencies' geometric mean in
// ms.
const serveSGMShift = 1

// serveWindows is how many consecutive windows a serving run's latencies
// are split into.
const serveWindows = 10

// serveSetupReps is how many times a serving run sets up its inputs and
// service; the median is setup_s and the last set-up is the one measured.
// A set-up takes milliseconds, so it is repeated more often than the
// paper-steps harvest, each time from a collected heap.
const serveSetupReps = 21

func runServe(spec serveSpec, seed uint64, seconds float64, traced bool, dir string, senders int) (*report, error) {
	rep := newReport()
	var setups []float64
	var run *serveRun
	for k := 0; k < serveSetupReps; k++ {
		runtime.GC()
		t := time.Now()
		ops, accel, err := buildOps(spec, seed, seconds)
		if err != nil {
			return nil, err
		}
		rg, err := startRig(spec, accel, len(ops), traced, dir, senders)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if k < serveSetupReps-1 {
			if _, err := rg.stop(); err != nil {
				return nil, err
			}
			continue
		}
		run = &serveRun{spec: spec, ops: ops, out: make([]outcome, len(ops)), rig: rg}
	}
	rep.e2e["setup_s"] = median(setups)

	runtime.GC() // every run starts measuring from its live set
	heap := startHeapSampler()
	mem0 := readMem()
	due := make([]time.Duration, len(run.ops))
	for i, o := range run.ops {
		due[i] = o.due
	}
	run.startOff = now() + 20*time.Millisecond
	// A wedged service must not hold the run past its time limit: stop
	// sending half a minute after the schedule ends.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+30*time.Second)
	run.loop = runOpenLoop(ctx, epoch.Add(run.startOff), due, senders, run.send)
	unfinished := ctx.Err()
	cancel()
	sendEnd := now()

	// Wait until every accepted job has been planned, or give up and let
	// the drain plan the rest.
	var accepted int
	for _, o := range run.out {
		if o.status == http.StatusAccepted {
			accepted++
		}
	}
	deadline := time.Now().Add(time.Duration(max(10, seconds) * float64(time.Second)))
	for run.rig.events.count() < accepted && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	liveSnaps := run.rig.snapshots()
	ser := readSeries(run.rig.regs...)
	peak := heap.stop()
	mem1 := readMem()
	snaps, stopErr := run.rig.stop()
	if stopErr != nil {
		return nil, fmt.Errorf("stop service: %w", stopErr)
	}
	if unfinished != nil {
		rep.fail("open loop did not finish its schedule in time: %v", unfinished)
	}
	rep.e2e["heap_peak_mb"] = peak
	rep.layer["go.alloc_mb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
	rep.layer["go.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6

	run.measure(rep, sendEnd)
	run.check(rep, snaps)
	run.layers(rep, ser, liveSnaps)
	if traced {
		run.trace(rep, dir, seed)
	}
	return rep, nil
}

// measure fills the end-to-end metrics of a serving run.
func (s *serveRun) measure(rep *report, sendEnd time.Duration) {
	ev := s.rig.events
	answer, result := make(windows, serveWindows), make(windows, serveWindows)
	span := float64(s.ops[len(s.ops)-1].due) + 1
	var submit, read, planned sample
	var firstDue time.Duration = math.MaxInt64
	var lastPlanned time.Duration
	for i, o := range s.ops {
		out, t := s.out[i], s.loop.Timings[i]
		rep.attempted++
		ok := out.err == nil && (out.status == http.StatusOK || out.status == http.StatusAccepted)
		if !ok {
			rep.failed++
			continue
		}
		frac := float64(t.Due) / span
		answer.add(frac, t.latency())
		if o.kind != opSubmit {
			read.add(t.latency())
			continue
		}
		submit.add(t.latency())
		firstDue = min(firstDue, s.startOff+t.Due)
		at, ok := ev.planned[out.id]
		if !ok {
			rep.failed++ // accepted but never planned
			continue
		}
		result.add(frac, at-(s.startOff+t.Due))
		planned.add(at - (s.startOff + t.Due))
		lastPlanned = max(lastPlanned, at)
	}
	rep.setLatency("answer", answer)
	rep.setLatency("result", result)
	rep.e2e["result_sgm_ms"] = result.each(func(s sample) float64 { return s.sgm(serveSGMShift) })
	rep.e2e["results_per_s"] = float64(result.n()) / (lastPlanned - firstDue).Seconds()
	rep.e2e["ok_pct"] = pct(float64(rep.attempted-rep.failed), float64(rep.attempted))
	rep.nameLatency("submit", submit)
	rep.nameLatency("planned", planned)
	if s.spec.reads {
		rep.nameLatency("read", read)
	}
	rep.name("planned_rps", "1/s", rep.e2e["results_per_s"], len(planned))
	rep.name("failed_pct", "%", 100-rep.e2e["ok_pct"], int(rep.attempted))

	var lateMs sample
	for _, t := range s.loop.Timings {
		lateMs.add(t.late())
	}
	rep.layer["driver.late_p99_ms"] = lateMs.quantile(0.99)
	rep.layer["driver.inflight_max"] = float64(s.loop.InflightMax)
	if err := s.loop.validate(); err != nil {
		rep.fail("open-loop validity: %v", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("offered %.0f submissions/s for %.1f s (%d ops, send phase ended %.2f s after start)",
		s.spec.rate, float64(s.ops[len(s.ops)-1].due)/1e9, len(s.ops), (sendEnd-s.startOff).Seconds()))
}

// check runs the serving output checks.
func (s *serveRun) check(rep *report, snaps []*schedd.Snapshot) {
	ev := s.rig.events
	accepted := map[int]bool{}
	for _, o := range s.out {
		if o.status != http.StatusAccepted {
			continue
		}
		if accepted[o.id] {
			rep.fail("job ID %d accepted twice", o.id)
		}
		accepted[o.id] = true
	}
	if ev.dups > 0 {
		rep.fail("%d jobs planned more than once", ev.dups)
	}
	for id := range ev.planned {
		if !accepted[id] {
			rep.fail("job %d planned but never accepted", id)
			break
		}
	}
	missing := 0
	for id := range accepted {
		if _, ok := ev.planned[id]; !ok {
			missing++
		}
	}
	if missing > 0 {
		rep.fail("%d accepted jobs were never planned, even after the drain", missing)
	}
	if s.rig.sub != nil {
		if n := readSeries(s.rig.regs...).count("shard.sse.overflow_disconnects"); n > 0 {
			rep.fail("event stream dropped the benchmark's subscriber (%v overflow disconnects)", n)
		}
	}
	for i, snap := range snaps {
		if err := checkCapacity(snap, s.rig.machines[i]); err != nil {
			rep.fail("final schedule of core %d: %v", i, err)
		}
	}
}

// checkCapacity replays every active job of a snapshot (running: from its
// start, waiting: from its planned start, each for its estimate) onto an
// empty machine and fails where capacity would go negative.
func checkCapacity(snap *schedd.Snapshot, size int) error {
	type iv struct {
		id         int
		start, end int64
		width      int
	}
	var ivs []iv
	origin := int64(math.MaxInt64)
	for _, st := range snap.Active {
		start := st.PlannedStart
		if st.State == schedd.StateRunning {
			start = st.Start
		}
		if start < 0 {
			return fmt.Errorf("job %d is active without a start", st.ID)
		}
		ivs = append(ivs, iv{st.ID, start, start + st.Estimate, st.Width})
		origin = min(origin, start)
	}
	if len(ivs) == 0 {
		return nil
	}
	p := machine.New(size, origin)
	for _, v := range ivs {
		if err := p.Reserve(v.start, v.end, v.width); err != nil {
			return fmt.Errorf("job %d (width %d on [%d, %d)) exceeds the %d-processor machine: %v", v.id, v.width, v.start, v.end, size, err)
		}
	}
	return nil
}

// layers fills the per-layer metrics a serving run can read from outside.
func (s *serveRun) layers(rep *report, ser series, live []*schedd.Snapshot) {
	l := rep.layer
	l["schedd.batch_size_mean"] = ser.histMean("schedd.batch.size")
	l["schedd.step_ms_p50"] = ser.histQuantile(0.5, "schedd.replan.duration.ms", "kind", "step")
	l["schedd.step_ms_p99"] = ser.histQuantile(0.99, "schedd.replan.duration.ms", "kind", "step")
	l["schedd.replan_ms_step"] = ser.histMean("schedd.replan.duration.ms", "kind", "step")
	l["schedd.replan_ms_completion"] = ser.histMean("schedd.replan.duration.ms", "kind", "completion")
	l["schedd.queue_depth_mean"] = ser.histMean("schedd.queue_depth")
	l["schedd.steps"] = ser.count("schedd.steps")
	l["schedd.replans"] = ser.count("schedd.replans")
	var gaps sample
	pubs := s.rig.events.publishes
	for i := 1; i < len(pubs); i++ {
		if pubs[i] >= s.startOff {
			gaps.add(pubs[i] - pubs[i-1])
		}
	}
	l["schedd.publish_gap_ms"] = gaps.mean()

	l["dynp.switches"] = ser.count("dynp.switches")
	l["dynp.step_us"], l["dynp.queue_len"] = retimeLiveQueue(live, s.rig.machines)

	l["wal.records_per_flush"] = ser.histMean("wal.fsync.batch")
	l["wal.append_wait_ms_p99"] = ser.histQuantile(0.99, "wal.append.wait.ms")

	perShard := map[int]float64{}
	for _, sh := range s.rig.events.shardOf {
		perShard[sh]++
	}
	lo, hi := math.Inf(1), 0.0
	for i := 0; i < s.spec.shards; i++ {
		lo, hi = math.Min(lo, perShard[i]), math.Max(hi, perShard[i])
	}
	l["shard.planned_skew"] = hi / math.Max(lo, 1)
	l["shard.backpressured"] = ser.count("shard.submit.backpressured")
	l["shard.fanout_retries"] = ser.count("shard.submit.fanout_retries")
}

// retimeLiveQueue times one dynP self-tuning step on the longest waiting
// queue among the cores' live snapshots (that core's running jobs as the
// machine history), returning the step time in µs and the queue length.
func retimeLiveQueue(snaps []*schedd.Snapshot, machines []int) (float64, float64) {
	k := 0
	for i, s := range snaps {
		if len(s.Schedule) > len(snaps[k].Schedule) {
			k = i
		}
	}
	snap := snaps[k]
	if len(snap.Schedule) == 0 {
		return 0, 0
	}
	base := machine.New(machines[k], snap.Now)
	for _, st := range snap.Active {
		if st.State == schedd.StateRunning && st.Start+st.Estimate > snap.Now {
			if err := base.Reserve(snap.Now, st.Start+st.Estimate, st.Width); err != nil {
				return 0, 0
			}
		}
	}
	waiting := make([]*job.Job, len(snap.Schedule))
	for i, e := range snap.Schedule {
		waiting[i] = &job.Job{ID: e.JobID + 1, Submit: snap.Now, Width: e.Width, Estimate: e.Estimate, Runtime: e.Estimate}
	}
	start, end, err := timeDynpStep(snap.Now, base, waiting)
	if err != nil {
		return 0, 0
	}
	return float64(end-start) / 1e3, float64(len(waiting))
}

// trace builds the spans of a traced serving run from the driver timings,
// the handler middleware and the planned events, and reports the layer
// tables of the three blocking paths.
func (s *serveRun) trace(rep *report, dir string, seed uint64) {
	log := &spanLog{on: true}
	h := s.rig.hlog
	var post, getJob, getSched, transport, schedKB sample
	for i, o := range s.ops {
		out, t := s.out[i], s.loop.Timings[i]
		if out.err != nil || (out.status != http.StatusOK && out.status != http.StatusAccepted) {
			continue
		}
		due, sent, done := s.startOff+t.Due, s.startOff+t.Sent, s.startOff+t.Done
		freeAt := max(due, s.startOff+t.Free)
		hs, he := time.Duration(h.start[i].Load()), time.Duration(h.end[i].Load())
		if hs == 0 {
			continue // handler never saw it
		}
		switch o.kind {
		case opSubmit:
			post.add(he - hs)
		case opGetJob:
			getJob.add(he - hs)
		case opGetSchedule:
			getSched.add(he - hs)
			schedKB = append(schedKB, float64(h.bytes[i].Load())/1024)
		}
		transport.add((done - sent) - (he - hs))
		root := "read"
		if o.kind == opSubmit {
			root = "submit"
		}
		r := log.add(0, i, root, due, done)
		log.add(r, i, "driver.queue", due, freeAt)
		log.add(r, i, "driver", freeAt, sent)
		c := log.add(r, i, "http", sent, done)
		log.add(c, i, "handler", hs, he)
		if o.kind != opSubmit {
			continue
		}
		at, ok := s.rig.events.planned[out.id]
		if !ok {
			continue
		}
		p := log.add(0, i, "plan", due, max(at, he))
		log.add(p, i, "driver.queue", due, freeAt)
		log.add(p, i, "driver", freeAt, sent)
		log.add(p, i, "http", sent, hs)
		log.add(p, i, "handler", hs, he)
		log.add(p, i, "schedd.writer", he, max(at, he))
	}
	l := rep.layer
	l["http.post_ms_p50"], l["http.post_ms_p99"] = post.quantile(0.5), post.quantile(0.99)
	l["http.get_job_ms_p50"], l["http.get_job_ms_p99"] = getJob.quantile(0.5), getJob.quantile(0.99)
	l["http.get_schedule_ms_p50"], l["http.get_schedule_ms_p99"] = getSched.quantile(0.5), getSched.quantile(0.99)
	l["http.transport_ms"] = transport.mean()
	l["http.schedule_kb"] = schedKB.mean()
	for _, root := range []string{"submit", "read", "plan"} {
		if b := log.breakdown(root); b.Roots > 0 {
			rep.addBreakdown(b)
		}
	}
	rep.writeSpans(log, dir, s.spec.name, seed)
}
