package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dynp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/schedd"
)

// The JSONL report is reconstructed from a real daemon trace: two traced
// submissions must appear as traced requests with their phase breakdown,
// and the step spans must yield a slowest-replan report.
func TestRunJSONLOnRealTrace(t *testing.T) {
	m, err := metrics.ByName("SLDwA")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := dynp.New([]policy.Policy{policy.FCFS{}, policy.SJF{}}, m, dynp.AdvancedDecider{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	core, err := schedd.New(schedd.Config{
		Machine:   8,
		Scheduler: sched,
		Clock:     schedd.NewManualClock(0),
		Trace:     obs.NewTracer(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	core.Start()
	for _, trace := range []string{"jsonl-req-a", "jsonl-req-b"} {
		ctx := obs.WithTraceID(context.Background(), trace)
		if _, err := core.SubmitCtx(ctx, schedd.SubmitRequest{Width: 2, Estimate: 100}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for core.Snapshot().Counts.Planned < 2 {
		if time.Now().After(deadline) {
			t.Fatal("jobs never planned")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := core.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "schedd.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runJSONL(&out, path, 10); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "2 traced requests") {
		t.Errorf("report missing traced requests:\n%s", report)
	}
	for _, trace := range []string{"jsonl-req-a", "jsonl-req-b"} {
		if !strings.Contains(report, short(trace)) {
			t.Errorf("report missing trace %s:\n%s", trace, report)
		}
	}
	if !strings.Contains(report, "slowest replan:") {
		t.Errorf("report missing slowest-replan section:\n%s", report)
	}
}

func TestRunJSONLMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := runJSONL(&out, filepath.Join(t.TempDir(), "nope.jsonl"), 5); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// Hand-built lines: unparseable input is skipped, not fatal, and a trace
// with no replan spans reports that tracing was sampled off.
func TestRunJSONLSampledOff(t *testing.T) {
	lines := strings.Join([]string{
		`{"t":0.001,"seq":0,"ev":"schedd.submit","job":1,"trace":"tr-1","source":"s"}`,
		`not json`,
		`{"t":0.002,"seq":1,"ev":"schedd.job.batched","job":1,"trace":"tr-1"}`,
		`{"t":0.004,"seq":2,"ev":"schedd.job.planned","job":1,"trace":"tr-1","plan_latency_ms":3.0}`,
		`{"t":0.005,"seq":3,"ev":"schedd.job.published","job":1,"trace":"tr-1"}`,
	}, "\n") + "\n"
	path := filepath.Join(t.TempDir(), "sampled.jsonl")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runJSONL(&out, path, 0); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "1 traced requests") {
		t.Errorf("report missing the traced request:\n%s", report)
	}
	if !strings.Contains(report, "no completed replan spans") {
		t.Errorf("report missing sampled-off note:\n%s", report)
	}
	// Total = published - submit = 4 ms.
	if !strings.Contains(report, "4.000") {
		t.Errorf("report missing total latency:\n%s", report)
	}
}

// Latencies come from the tracer's wall clock "t"; the daemon's virtual
// time arrives separately as "vt" and labels the slowest replan.
func TestRunJSONLReadsWallAndVirtualTime(t *testing.T) {
	lines := strings.Join([]string{
		`{"t":0.010,"seq":0,"ev":"schedd.submit","vt":5000,"job":1,"trace":"tr-1"}`,
		`{"t":0.011,"seq":1,"ev":"schedd.step","span":1,"phase":"begin","vt":5000,"batch":1,"queue_depth":1}`,
		`{"t":0.012,"seq":2,"ev":"schedd.job.planned","span":1,"vt":5000,"job":1,"trace":"tr-1"}`,
		`{"t":0.013,"seq":3,"ev":"schedd.step","span":1,"phase":"end","dur_ms":2.000,"outcome":"ok"}`,
		`{"t":0.016,"seq":4,"ev":"schedd.job.published","vt":9000,"job":1,"trace":"tr-1"}`,
	}, "\n") + "\n"
	path := filepath.Join(t.TempDir(), "vt.jsonl")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runJSONL(&out, path, 0); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	// Total = published - submit on the wall clock = 6 ms.
	if !strings.Contains(report, "6.000") {
		t.Errorf("report missing the 6 ms wall-clock total:\n%s", report)
	}
	if !strings.Contains(report, "at t=0.011s (vt=5000)") {
		t.Errorf("slowest replan not labelled with wall and virtual time:\n%s", report)
	}
}
