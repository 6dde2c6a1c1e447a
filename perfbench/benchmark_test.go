package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/schedd"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, the metric tables
// the program prints and the should-move map in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
	for _, m := range layerMetrics {
		if layerMoves[m.name] == "" {
			t.Errorf("layer metric %s names no end-to-end metric it should move", m.name)
		}
	}
	for i, w := range b.Workloads {
		if i >= len(workloads) || w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %v", i, w.Name, workloads)
		}
	}
}

// TestBreakdownReconciles checks self time: a parent's children, clipped
// to it and merged where they overlap, leave the rest as its own.
func TestBreakdownReconciles(t *testing.T) {
	l := &spanLog{on: true}
	ms := time.Millisecond
	r := l.add(0, 1, "root", 0, 10*ms)
	l.add(r, 1, "a", 1*ms, 4*ms)
	l.add(r, 1, "a", 3*ms, 6*ms) // overlaps the first
	c := l.add(r, 1, "b", 8*ms, 12*ms)
	l.add(c, 1, "leaf", 9*ms, 10*ms)
	b := l.breakdown("root")
	self := map[string]float64{}
	for _, row := range b.Layers {
		self[row.Layer] = row.MeanMs
	}
	want := map[string]float64{"root": 3, "a": 6, "b": 3, "leaf": 1}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self time of %s = %v ms, want %v", k, self[k], v)
		}
	}
	// The overlapping a-spans count 6 ms against the 5 ms they cover, so
	// the layers add up to 13 ms of a 10 ms root and must not reconcile.
	if b.reconciles() {
		t.Errorf("overlapping children reconciled: sum %v vs mean %v", b.SumMs, b.MeanMs)
	}
}

// TestCheckCapacity checks that an overbooked plan is caught.
func TestCheckCapacity(t *testing.T) {
	snap := &schedd.Snapshot{Active: map[int]schedd.JobStatus{
		1: {ID: 1, State: schedd.StateRunning, Width: 6, Estimate: 100, Start: 0, PlannedStart: 0},
		2: {ID: 2, State: schedd.StateWaiting, Width: 4, Estimate: 50, Start: -1, PlannedStart: 100},
	}}
	if err := checkCapacity(snap, 8); err != nil {
		t.Fatalf("feasible plan rejected: %v", err)
	}
	snap.Active[2] = schedd.JobStatus{ID: 2, State: schedd.StateWaiting, Width: 4, Estimate: 50, Start: -1, PlannedStart: 90}
	if err := checkCapacity(snap, 8); err == nil {
		t.Fatal("plan using 10 of 8 processors on [90, 100) passed")
	}
}
