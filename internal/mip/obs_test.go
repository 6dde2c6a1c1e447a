package mip

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// hardKnapsack returns a knapsack instance that needs a real search tree.
func hardKnapsack() ([]float64, []float64, float64) {
	values := []float64{10, 13, 7, 8, 2, 11, 9, 6, 5, 12, 4, 3}
	weights := []float64{3, 4, 2, 3, 1, 4, 3, 2, 2, 4, 1, 1}
	return values, weights, 11
}

func TestProgressCallback(t *testing.T) {
	values, weights, cap := hardKnapsack()
	p, ints := knapsack(values, weights, cap)
	var calls []Progress
	res, err := Solve(p, ints, Options{
		Progress:      func(pr Progress) { calls = append(calls, pr) },
		ProgressEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if len(calls) == 0 {
		t.Fatal("Progress callback never invoked")
	}
	var sawIncumbent bool
	lastNodes := 0
	for _, pr := range calls {
		if pr.Nodes < lastNodes {
			t.Errorf("node count went backwards: %d after %d", pr.Nodes, lastNodes)
		}
		lastNodes = pr.Nodes
		if pr.HasIncumbent {
			sawIncumbent = true
			if math.IsInf(pr.Incumbent, 0) {
				t.Errorf("HasIncumbent with infinite objective")
			}
		}
	}
	if !sawIncumbent {
		t.Error("no progress snapshot ever carried an incumbent")
	}
	// Incumbent acceptance also fires the callback, so there must be at
	// least Nodes (one per node at ProgressEvery=1) calls.
	if len(calls) < res.Nodes {
		t.Errorf("got %d progress calls for %d nodes", len(calls), res.Nodes)
	}
}

func TestIncumbentAndBoundLogs(t *testing.T) {
	values, weights, cap := hardKnapsack()
	p, ints := knapsack(values, weights, cap)
	res, err := Solve(p, ints, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incumbents) == 0 {
		t.Fatal("no incumbent records")
	}
	last := math.Inf(1)
	for _, rec := range res.Incumbents {
		if rec.Objective >= last {
			t.Errorf("incumbent objective not improving: %g after %g", rec.Objective, last)
		}
		last = rec.Objective
		if rec.Source != "lp" && rec.Source != "heuristic" && rec.Source != "initial" {
			t.Errorf("unknown incumbent source %q", rec.Source)
		}
	}
	if res.Incumbents[len(res.Incumbents)-1].Objective != res.Objective {
		t.Errorf("last incumbent %g != final objective %g",
			res.Incumbents[len(res.Incumbents)-1].Objective, res.Objective)
	}
	lastBound := math.Inf(-1)
	for _, rec := range res.Bounds {
		if rec.Bound <= lastBound {
			t.Errorf("bound trajectory not monotone: %g after %g", rec.Bound, lastBound)
		}
		lastBound = rec.Bound
	}
	if res.LPSolves != res.Nodes {
		t.Errorf("LPSolves = %d, want %d (no cuts configured)", res.LPSolves, res.Nodes)
	}
}

func TestSolveTraceAndMetrics(t *testing.T) {
	values, weights, cap := hardKnapsack()
	p, ints := knapsack(values, weights, cap)
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	// Workers: 1 on both solves: only the serial node order is
	// deterministic, and the equality check below needs it.
	res, err := Solve(p, ints, Options{Workers: 1, Trace: obs.NewTracer(&buf), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	types := map[string]int{}
	var sawSolveEnd bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		ev := e["ev"].(string)
		types[ev]++
		if ev == "mip.solve" && e["phase"] == "end" {
			sawSolveEnd = true
			if e["status"] != "optimal" {
				t.Errorf("solve span status = %v", e["status"])
			}
		}
	}
	for _, want := range []string{"mip.solve", "mip.incumbent", "mip.bound"} {
		if types[want] == 0 {
			t.Errorf("no %s events in trace (types: %v)", want, types)
		}
	}
	if !sawSolveEnd {
		t.Error("mip.solve span never ended")
	}
	if got := reg.Counter("mip.nodes").Value(); got != int64(res.Nodes) {
		t.Errorf("mip.nodes counter = %d, want %d", got, res.Nodes)
	}
	if got := reg.Counter("mip.incumbents").Value(); got != int64(len(res.Incumbents)) {
		t.Errorf("mip.incumbents counter = %d, want %d", got, len(res.Incumbents))
	}
	if got := reg.Counter("mip.lp_iters").Value(); got != int64(res.LPIters) {
		t.Errorf("mip.lp_iters counter = %d, want %d", got, res.LPIters)
	}

	// Tracing must not change the search: re-solve without observers.
	p2, ints2 := knapsack(values, weights, cap)
	res2, err := Solve(p2, ints2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Objective != res.Objective || res2.Nodes != res.Nodes || res2.LPIters != res.LPIters {
		t.Errorf("tracing changed the search: (%g,%d,%d) vs (%g,%d,%d)",
			res.Objective, res.Nodes, res.LPIters, res2.Objective, res2.Nodes, res2.LPIters)
	}
}

func TestDeadlineHitCounter(t *testing.T) {
	values, weights, cap := hardKnapsack()
	p, ints := knapsack(values, weights, cap)
	reg := obs.NewRegistry()
	res, err := Solve(p, ints, Options{TimeLimit: time.Nanosecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != NoSolution {
		t.Fatalf("status = %v, want no-solution under a 1ns deadline", res.Status)
	}
	if !res.DeadlineHit {
		t.Error("DeadlineHit not set")
	}
	if got := reg.Counter("mip.deadline_hits").Value(); got != 1 {
		t.Errorf("mip.deadline_hits = %d, want 1", got)
	}
}

func TestSolveReportRendering(t *testing.T) {
	values, weights, cap := hardKnapsack()
	p, ints := knapsack(values, weights, cap)
	res, err := Solve(p, ints, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Report().String()
	for _, want := range []string{"status", "optimal", "nodes explored", "LP iterations", "elapsed"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
