package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// servedPlan is one plan.served trace event: an adopted plan's instant,
// size and (job, start) digest.
type servedPlan struct {
	t, jobs, digest string
}

// servedPlans extracts the plan.served events of a JSONL trace in
// emission order.
func servedPlans(t *testing.T, trace string) []servedPlan {
	t.Helper()
	var out []servedPlan
	for _, line := range strings.Split(strings.TrimSpace(trace), "\n") {
		if !strings.Contains(line, `"ev":"plan.served"`) {
			continue
		}
		// Digests are 64-bit: keep numbers exact. "vt" is the virtual
		// time of the plan ("t" is the tracer's wall clock).
		dec := json.NewDecoder(strings.NewReader(line))
		dec.UseNumber()
		var e map[string]any
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		num := func(k string) string { n, _ := e[k].(json.Number); return n.String() }
		out = append(out, servedPlan{t: num("vt"), jobs: num("jobs"), digest: num("digest")})
	}
	return out
}

// The offline simulator and the online service drive one planning
// kernel, so one trace replayed through both — the service on a manual
// clock, one submission per step, no WAL — must adopt the identical
// sequence of plans: every job's planned start after every step and
// every completion replan.
func TestSimAndScheddPlanSequencesAgree(t *testing.T) {
	const jobs, seed = 300, 0
	tr, err := workload.Generate(workload.CTC(), jobs, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range tr.Jobs {
		if j.ID != i+1 {
			t.Fatalf("trace job %d has ID %d: the service numbers jobs 1..n in submit order", i, j.ID)
		}
	}

	var simTrace bytes.Buffer
	cfg := sim.DefaultConfig()
	cfg.Trace = obs.NewTracer(&simTrace)
	s, err := sim.New(tr, newScheduler(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	var srvTrace bytes.Buffer
	clock := NewManualClock(0)
	c := startCore(t, Config{
		Machine:  tr.Processors,
		Clock:    clock,
		MaxBatch: 1,
		Trace:    obs.NewTracer(&srvTrace),
	})
	for i, j := range tr.Jobs {
		clock.Set(j.Submit)
		if _, err := c.Submit(SubmitRequest{Width: j.Width, Estimate: j.Estimate, Runtime: j.Runtime}); err != nil {
			t.Fatalf("submit %d: %v", j.ID, err)
		}
		// One step per submission: wait for it before time moves on.
		deadline := time.Now().Add(10 * time.Second)
		for c.Snapshot().Counts.Steps < int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for step %d", i+1)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	clock.Set(1 << 40) // past every completion: the drain finishes the run
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := c.Stop(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if final.Counts.Completed != jobs {
		t.Fatalf("service completed %d of %d jobs", final.Counts.Completed, jobs)
	}
	if final.Counts.Steps != int64(res.Steps) || final.Counts.Replans != int64(res.Replans) {
		t.Errorf("service ran %d steps and %d replans, simulator %d and %d",
			final.Counts.Steps, final.Counts.Replans, res.Steps, res.Replans)
	}

	want, got := servedPlans(t, simTrace.String()), servedPlans(t, srvTrace.String())
	if len(want) != res.Steps+res.Replans {
		t.Fatalf("simulator traced %d served plans for %d steps and %d replans", len(want), res.Steps, res.Replans)
	}
	for i := 0; i < min(len(want), len(got)); i++ {
		if want[i] != got[i] {
			t.Fatalf("plan %d differs: simulator %+v, service %+v", i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("simulator adopted %d plans, service %d", len(want), len(got))
	}
	for _, done := range res.Completed {
		st, ok := c.Job(done.Job.ID)
		if !ok || st.Start != done.Start || st.End != done.End {
			t.Fatalf("job %d ran [%d, %d) in the simulator, service reports %+v", done.Job.ID, done.Start, done.End, st)
		}
	}
}
