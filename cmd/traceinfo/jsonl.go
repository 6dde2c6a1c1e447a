// JSONL mode: reconstruct per-request latency breakdowns from a schedd
// structured trace (-trace schedd.jsonl on the daemon, or any tracer
// sink). The daemon stamps every lifecycle event of a traced job with
// its request trace ID (X-Trace-Id), so the submit → batched → planned
// → published path of each job can be reassembled offline from the
// flat event stream, along with a slowest-replan report built from the
// span tree.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/table"
)

// jsonlEvent is the superset of trace-event fields the reconstruction
// reads; unknown fields are ignored. T is the tracer's wall clock
// (seconds since trace start), which every latency computation uses;
// VT is the daemon's virtual time, carried by schedd events.
type jsonlEvent struct {
	T          float64 `json:"t"`
	VT         int64   `json:"vt"`
	Seq        int64   `json:"seq"`
	Ev         string  `json:"ev"`
	Span       int64   `json:"span"`
	Parent     int64   `json:"parent"`
	Phase      string  `json:"phase"`
	DurMs      float64 `json:"dur_ms"`
	Trace      string  `json:"trace"`
	Job        int64   `json:"job"`
	PlanLatMs  float64 `json:"plan_latency_ms"`
	Batch      int64   `json:"batch"`
	QueueDepth int64   `json:"queue_depth"`
	Outcome    string  `json:"outcome"`
	Policy     string  `json:"policy"`
	Degraded   bool    `json:"degraded"`
	Failure    string  `json:"failure"`
	Rung       int64   `json:"rung"`
	Scale      int64   `json:"scale"`
	Source     string  `json:"source"`
}

// jobPath is the reconstructed lifecycle of one traced request.
type jobPath struct {
	trace     string
	job       int64
	submitT   float64 // schedd.submit (admission accepted)
	batchedT  float64 // schedd.job.batched (coalesced into a step)
	plannedT  float64 // schedd.job.planned (first plan adopted)
	publishT  float64 // schedd.job.published (plan visible to readers)
	hasSubmit bool
	hasBatch  bool
	hasPlan   bool
	hasPub    bool
	planLatMs float64
	degraded  bool
	source    string
}

// totalMs is the submit→published wall time (falls back to the planned
// time when publication was not observed).
func (p *jobPath) totalMs() float64 {
	switch {
	case p.hasSubmit && p.hasPub:
		return (p.publishT - p.submitT) * 1000
	case p.hasSubmit && p.hasPlan:
		return (p.plannedT - p.submitT) * 1000
	}
	return 0
}

// replanSpan is one replan span (schedd.step or schedd.replan) with its
// direct child spans (solve attempts etc.).
type replanSpan struct {
	ev         string
	span       int64
	beginT     float64
	beginVT    int64 // virtual time of the step or replan
	durMs      float64
	batch      int64
	queueDepth int64
	outcome    string
	policy     string
	children   []childSpan
}

type childSpan struct {
	ev      string
	durMs   float64
	rung    int64
	scale   int64
	failure string
}

func runJSONL(w io.Writer, path string, top int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	paths := map[string]*jobPath{} // by trace ID
	spans := map[int64]*replanSpan{}
	// Child spans seen before/after their parent's end: resolved by span
	// id, so collect begin info and attach on end.
	childBegins := map[int64]*childSpan{} // span id -> child under a replan span
	childParent := map[int64]int64{}      // child span id -> replan span id
	var events, badLines int

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e jsonlEvent
		if err := json.Unmarshal(line, &e); err != nil {
			badLines++
			continue
		}
		events++
		if e.Trace != "" {
			p, ok := paths[e.Trace]
			if !ok {
				p = &jobPath{trace: e.Trace}
				paths[e.Trace] = p
			}
			switch e.Ev {
			case "schedd.submit":
				p.submitT, p.hasSubmit = e.T, true
				p.job, p.source = e.Job, e.Source
			case "schedd.job.batched":
				p.batchedT, p.hasBatch = e.T, true
				p.job = e.Job
			case "schedd.job.planned":
				p.plannedT, p.hasPlan = e.T, true
				p.job, p.planLatMs, p.degraded = e.Job, e.PlanLatMs, e.Degraded
			case "schedd.job.published":
				p.publishT, p.hasPub = e.T, true
				p.job = e.Job
			}
		}
		switch e.Ev {
		case "schedd.step", "schedd.replan":
			switch e.Phase {
			case "begin":
				spans[e.Span] = &replanSpan{
					ev: e.Ev, span: e.Span, beginT: e.T, beginVT: e.VT,
					batch: e.Batch, queueDepth: e.QueueDepth,
				}
			case "end":
				if rs, ok := spans[e.Span]; ok {
					rs.durMs, rs.outcome, rs.policy = e.DurMs, e.Outcome, e.Policy
				}
			}
		case "solve.attempt", "mip.solve", "lp.solve":
			// The slow-replan dump re-emits reconstructed attempt spans
			// under schedd.replan.slow; those carry reconstruction time in
			// dur_ms, not solve time, so only spans parented by a live
			// replan span are attached.
			switch e.Phase {
			case "begin":
				if _, ok := spans[e.Parent]; ok {
					cs := &childSpan{ev: e.Ev, rung: e.Rung, scale: e.Scale}
					childBegins[e.Span] = cs
					childParent[e.Span] = e.Parent
				}
			case "end":
				if cs, ok := childBegins[e.Span]; ok {
					cs.durMs, cs.failure = e.DurMs, e.Failure
					if rs, ok := spans[childParent[e.Span]]; ok {
						rs.children = append(rs.children, *cs)
					}
					delete(childBegins, e.Span)
					delete(childParent, e.Span)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if badLines > 0 {
		fmt.Fprintf(os.Stderr, "traceinfo: skipped %d unparseable lines\n", badLines)
	}

	// Per-request latency breakdown, slowest first.
	var jobs []*jobPath
	for _, p := range paths {
		if p.hasSubmit || p.hasPlan {
			jobs = append(jobs, p)
		}
	}
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].totalMs() != jobs[b].totalMs() {
			return jobs[a].totalMs() > jobs[b].totalMs()
		}
		return jobs[a].trace < jobs[b].trace
	})
	fmt.Fprintf(w, "trace: %d events, %d traced requests, %d replan spans\n\n",
		events, len(jobs), len(spans))

	n := len(jobs)
	if top > 0 && n > top {
		n = top
	}
	if n > 0 {
		fmt.Fprintf(w, "slowest %d traced requests (submit -> batched -> planned -> published):\n", n)
		t := table.New("job", "trace", "queue ms", "plan ms", "publish ms", "total ms", "degraded")
		for _, p := range jobs[:n] {
			t.Row(p.job, short(p.trace),
				phaseMs(p.hasSubmit, p.hasBatch, p.submitT, p.batchedT),
				phaseMs(p.hasBatch, p.hasPlan, p.batchedT, p.plannedT),
				phaseMs(p.hasPlan, p.hasPub, p.plannedT, p.publishT),
				fmt.Sprintf("%.3f", p.totalMs()),
				p.degraded)
		}
		fmt.Fprint(w, t.String())
	}

	// Slowest-replan report from the span tree.
	var replans []*replanSpan
	for _, rs := range spans {
		if rs.durMs > 0 {
			replans = append(replans, rs)
		}
	}
	sort.Slice(replans, func(a, b int) bool { return replans[a].durMs > replans[b].durMs })
	if len(replans) == 0 {
		fmt.Fprintln(w, "\nno completed replan spans in the trace (tracing sampled off?)")
		return nil
	}
	var sum float64
	for _, rs := range replans {
		sum += rs.durMs
	}
	slowest := replans[0]
	fmt.Fprintf(w, "\nreplans: %d spans, mean %.3f ms, max %.3f ms\n",
		len(replans), sum/float64(len(replans)), slowest.durMs)
	fmt.Fprintf(w, "slowest replan: %s span %d at t=%.3fs (vt=%d): %.3f ms, batch %d, queue %d",
		slowest.ev, slowest.span, slowest.beginT, slowest.beginVT, slowest.durMs, slowest.batch, slowest.queueDepth)
	if slowest.outcome != "" {
		fmt.Fprintf(w, ", outcome %s", slowest.outcome)
	}
	if slowest.policy != "" {
		fmt.Fprintf(w, ", policy %s", slowest.policy)
	}
	fmt.Fprintln(w)
	for _, cs := range slowest.children {
		fmt.Fprintf(w, "  %-14s %.3f ms", cs.ev, cs.durMs)
		if cs.ev == "solve.attempt" {
			fmt.Fprintf(w, "  rung %d scale %d failure %s", cs.rung, cs.scale, cs.failure)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// phaseMs renders the duration between two observed timestamps, or "-"
// when either end is missing.
func phaseMs(hasA, hasB bool, a, b float64) string {
	if !hasA || !hasB {
		return "-"
	}
	return fmt.Sprintf("%.3f", (b-a)*1000)
}

// short abbreviates a trace ID for table display.
func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
