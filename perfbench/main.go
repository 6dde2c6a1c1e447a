// Command perfbench is the repository benchmark: three workloads that
// exercise the online scheduling service and the paper's per-step ILP
// solve, each printing its end-to-end metrics and checking its outputs.
//
// Usage (from the repository root; see README.md):
//
//	python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 they are the per-layer set, and the
// layer tables are printed above it. A failed output check prints the
// reason, reports no numbers and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// epoch is the origin of every offset the benchmark records.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// metricDef is one reported metric with its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports. Each has
// a workload-specific reading (see README.md):
//
//	answer: due time -> the caller's answer (an HTTP response; the dynP
//	        policy schedule on paper-steps)
//	result: due time -> the work is done (the job appears in an adopted
//	        plan; the ILP step returns on paper-steps)
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"ok_pct", "%"},
	{"answer_p50_ms", "ms"},
	{"result_sgm_ms", "ms"},
	{"result_tail_ms", "ms"},
	{"results_per_s", "1/s"},
}

// layerMetrics are the per-layer metrics of the traced run. A layer that
// does no work on a workload reports 0.
var layerMetrics = []metricDef{
	{"driver.late_p99_ms", "ms"},
	{"driver.inflight_max", "count"},
	{"http.post_ms_p50", "ms"},
	{"http.post_ms_p99", "ms"},
	{"http.get_job_ms_p50", "ms"},
	{"http.get_job_ms_p99", "ms"},
	{"http.get_schedule_ms_p50", "ms"},
	{"http.get_schedule_ms_p99", "ms"},
	{"http.transport_ms", "ms"},
	{"http.schedule_kb", "KiB"},
	{"schedd.batch_size_mean", "count"},
	{"schedd.step_ms_p50", "ms"},
	{"schedd.step_ms_p99", "ms"},
	{"schedd.replan_ms_step", "ms"},
	{"schedd.replan_ms_completion", "ms"},
	{"schedd.queue_depth_mean", "count"},
	{"schedd.publish_gap_ms", "ms"},
	{"schedd.steps", "count"},
	{"schedd.replans", "count"},
	{"dynp.step_us", "us"},
	{"dynp.queue_len", "count"},
	{"dynp.switches", "count"},
	{"wal.records_per_flush", "count"},
	{"wal.append_wait_ms_p99", "ms"},
	{"shard.planned_skew", "ratio"},
	{"shard.backpressured", "count"},
	{"shard.fanout_retries", "count"},
	{"solvepipe.attempt_ms", "ms"},
	{"solvepipe.retries", "count"},
	{"ilpsched.build_ms", "ms"},
	{"ilpsched.vars", "count"},
	{"ilpsched.rows", "count"},
	{"presolve.vars_removed_pct", "%"},
	{"mip.solve_ms", "ms"},
	{"mip.solved_pct", "%"},
	{"mip.nodes", "count"},
	{"mip.nodes_per_s", "1/s"},
	{"mip.pruned_pct", "%"},
	{"mip.heuristic_hits", "count"},
	{"lp.iters", "count"},
	{"lp.iters_per_s", "1/s"},
	{"lp.solves", "count"},
	{"lp.warmstart_hit_pct", "%"},
	{"lp.refactorizations", "count"},
	{"lp.degenerate_pct", "%"},
	{"go.alloc_mb", "MB"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.reconcile_err_pct", "%"},
}

// report is what one workload run measured and checked.
type report struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	counts            map[string]int // sample count behind a latency metric
	tails             map[string]float64
	checks            []string // failed output checks
	notes             []string
	named             []namedMetric
	paths             []pathBreakdown
	spansFile         string
}

// namedMetric is one of the workload's own metrics under the name the
// design of the benchmark gives it (submit_p99_ms, solved_pct, ...),
// printed with its sample count for reading, not gated.
type namedMetric struct {
	name, unit string
	value      float64
	n          int
}

func (r *report) name(name, unit string, value float64, n int) {
	r.named = append(r.named, namedMetric{name, unit, value, n})
}

// nameLatency records the median and p99 of one kind of operation.
func (r *report) nameLatency(kind string, s sample) {
	r.name(kind+"_p50_ms", "ms", s.quantile(0.5), len(s))
	r.name(kind+"_p99_ms", "ms", s.quantile(0.99), len(s))
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, counts: map[string]int{}, tails: map[string]float64{}}
}

func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// setLatency records the median and tail of one latency family (answer
// or result), each as a median over the windows.
func (r *report) setLatency(family string, w windows) {
	r.e2e[family+"_p50_ms"] = w.each(func(s sample) float64 { return s.quantile(0.5) })
	r.e2e[family+"_tail_ms"] = w.each(func(s sample) float64 { return s.quantile(tailQ(len(s))) })
	r.counts[family] = w.n()
	r.tails[family] = tailQ(w.n() / len(w))
}

func (r *report) addBreakdown(b pathBreakdown) {
	r.paths = append(r.paths, b)
	r.layer["trace.reconcile_err_pct"] = max(r.layer["trace.reconcile_err_pct"], b.errPct())
	if !b.reconciles() {
		r.fail("layer table of %q does not reconcile: layers sum to %.4f ms, end-to-end mean %.4f ms", b.Root, b.SumMs, b.MeanMs)
	}
}

func (r *report) writeSpans(log *spanLog, dir, workload string, seed uint64) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		r.notes = append(r.notes, fmt.Sprintf("spans not written: %v", err))
		return
	}
	err = log.write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		r.notes = append(r.notes, fmt.Sprintf("spans not written: %v", err))
		return
	}
	r.spansFile = path
}

// heapSampler samples the live Go heap every 10 ms while a run measures.
type heapSampler struct {
	stopc chan struct{}
	done  chan []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var mb []float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			mb = append(mb, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stopc:
				h.done <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap in MiB as the median over
// quarter-second windows of each window's peak: the heap a run typically
// reaches, not the one garbage collection cycle that happened to peak
// highest.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	mb := <-h.done
	const perWindow = 25 // samples, 10 ms apart
	var peaks []float64
	for lo := 0; lo < len(mb); lo += perWindow {
		peaks = append(peaks, sample(mb[lo:min(lo+perWindow, len(mb))]).max())
	}
	return median(peaks)
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

var workloads = []string{"serve-mixed", "serve-saturate", "paper-steps"}

// Offered submission rates of the serving workloads (per wall second).
const (
	mixedRate    = 300
	saturateRate = 500
	saturateLoad = 0.6
)

// runWorkload runs one workload for the given number of seconds.
func runWorkload(name string, seed uint64, seconds float64, traced bool, dir string) (*report, error) {
	senders := runtime.NumCPU()
	switch name {
	case "serve-mixed":
		return runServe(serveSpec{name: name, rate: mixedRate, shards: 1, reads: true, load: 1}, seed, seconds, traced, dir, senders)
	case "serve-saturate":
		return runServe(serveSpec{name: name, rate: saturateRate, shards: max(2, runtime.NumCPU()), wal: true, load: saturateLoad}, seed, seconds, traced, dir, senders)
	case "paper-steps":
		return runSteps(seed, seconds, traced, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and WAL files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host: %s\n", hostFingerprint())
	fmt.Fprintf(stdout, "workload: %s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)

	var rep *report
	if *trace == 0 {
		r, err := runWorkload(*name, *seed, float64(*seconds), false, *out)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		rep = r
	} else {
		// The traced half reports the layers; the untraced half on the
		// same inputs prices the tracing.
		half := float64(*seconds) / 2
		plain, err := runWorkload(*name, *seed, half, false, *out)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		r, err := runWorkload(*name, *seed, half, true, *out)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		r.checks = append(plain.checks, r.checks...)
		base := "answer_p50_ms"
		if *name == "paper-steps" {
			base = "result_sgm_ms"
		}
		r.layer["trace.overhead_pct"] = 100 * (r.e2e[base]/plain.e2e[base] - 1)
		r.notes = append(r.notes, fmt.Sprintf("tracing overhead %+.2f%% on %s (untraced %.4f, traced %.4f)",
			r.layer["trace.overhead_pct"], base, plain.e2e[base], r.e2e[base]))
		rep = r
	}
	return emit(stdout, rep, *trace == 1)
}

// emit prints the human-readable report and the result line.
func emit(w io.Writer, rep *report, traced bool) int {
	for _, n := range rep.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, m := range rep.named {
		fmt.Fprintf(w, "named %-18s %14.4f %-3s (n=%d)\n", m.name, m.value, m.unit, m.n)
	}
	for _, m := range e2eMetrics {
		line := fmt.Sprintf("e2e   %-18s %14.4f %s", m.name, rep.e2e[m.name], m.unit)
		for _, fam := range []string{"answer", "result"} {
			if strings.HasPrefix(m.name, fam+"_") {
				line += fmt.Sprintf("  (n=%d", rep.counts[fam])
				if strings.HasSuffix(m.name, "_tail_ms") {
					line += fmt.Sprintf(", p%.1f per window", 100*rep.tails[fam])
				}
				line += ")"
			}
		}
		fmt.Fprintln(w, line)
	}
	if traced {
		for _, m := range layerMetrics {
			fmt.Fprintf(w, "layer %-28s %14.4f %-5s moves %s\n", m.name, rep.layer[m.name], m.unit, layerMoves[m.name])
		}
		for _, p := range rep.paths {
			p.print(w)
		}
		if rep.spansFile != "" {
			fmt.Fprintf(w, "spans: %s\n", rep.spansFile)
		}
	}
	res := result{Correct: len(rep.checks) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	if res.Correct {
		defs := e2eMetrics
		vals := rep.e2e
		if traced {
			defs, vals = layerMetrics, rep.layer
		}
		for _, m := range defs {
			res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
	} else {
		sort.Strings(rep.checks)
		for _, c := range rep.checks {
			fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(w, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// hostFingerprint records what a result was measured on.
func hostFingerprint() string {
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d go=%s os=%s/%s kernel=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernelRelease())
}
