package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/sim"
	"repro/internal/solvepipe"
	"repro/internal/workload"
)

// Paper-steps sizing: the waiting-queue window of the solved steps, the
// traces whose simulation yields them, and the per-step budget.
const (
	minStepJobs = 4
	maxStepJobs = 16
	// stepSetupReps is how many times a run harvests; the median is
	// setup_s.
	stepSetupReps = 5
	stepTraces    = 24
	stepTraceLen  = 1000
	stepBudget    = 250 * time.Millisecond
	stepMaxNodes  = 200000 // the cmd/schedd node limit
	dynpRetimes   = 20
	// stepsPerTrace is how many steps, a seeded random sample, each trace
	// contributes: many more than a run solves, and the same number on
	// every seed, so the harvest's memory does not swing with the seed.
	stepsPerTrace = 50
	// stepSGMShift is the shift of the steps' geometric mean in ms: solves
	// of 2 ms and of 20 ms count about alike, so the mean follows the
	// longer solves and the time-outs rather than timer noise.
	stepSGMShift = 100
)

// step is one harvested self-tuning step: the quasi off-line instance
// and the best policy's schedule, which seeds the search.
type step struct {
	inst *ilpsched.Instance
	best dynp.Evaluation
}

// harvest simulates stepTraces seeded CTC traces under self-tuning dynP,
// as the paper does, and keeps every step whose queue is in the window.
// How hard a trace's steps are varies from trace to trace; pooling
// several keeps that variation from swinging a whole run.
func harvest(seed uint64) ([]step, int, error) {
	var steps []step
	switches := 0
	for k := uint64(0); k < stepTraces; k++ {
		st, sw, err := harvestTrace(seed*stepTraces + k)
		if err != nil {
			return nil, 0, err
		}
		steps, switches = append(steps, st...), switches+sw
	}
	return solveOrder(steps, seed), switches, nil
}

// harvestTrace harvests the steps of one trace.
func harvestTrace(seed uint64) ([]step, int, error) {
	tr, err := workload.Generate(workload.CTC(), stepTraceLen, seed)
	if err != nil {
		return nil, 0, err
	}
	var steps []step
	cfg := sim.DefaultConfig()
	cfg.OnStep = func(sc *sim.StepContext) {
		n := len(sc.Waiting)
		if n < minStepJobs || n > maxStepJobs {
			return
		}
		var horizon int64
		best := sc.Result.Evals[0]
		for _, e := range sc.Result.Evals {
			horizon = max(horizon, e.Schedule.Makespan())
			if metrics.Better(metrics.SLDwA{}, e.Value, best.Value) {
				best = e
			}
		}
		steps = append(steps, step{
			inst: &ilpsched.Instance{
				Now: sc.Now, Machine: sc.Base.Total(), Base: sc.Base.Clone(),
				Jobs: append([]*job.Job(nil), sc.Waiting...), Horizon: horizon,
			},
			best: best,
		})
	}
	s, err := sim.New(tr, newPolicyScheduler(), cfg)
	if err != nil {
		return nil, 0, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return steps[:min(len(steps), stepsPerTrace)], res.Switches, nil
}

// queueMix is how many of every len(queueMix)-ish solved steps have each
// queue length: the harvest's own distribution, averaged over 40 seeds.
// Fixing it keeps the mix of queue lengths, and with it the share of
// steps that run into the budget, the same on every seed.
var queueMix = [maxStepJobs + 1]int{4: 22, 5: 21, 6: 19, 7: 17, 8: 18, 9: 16, 10: 15, 11: 15, 12: 14, 13: 13, 14: 12, 15: 12, 16: 10}

// solveOrder orders the harvested steps so that any prefix a run has time
// to solve follows queueMix and spans the whole trace. Each queue length
// is a seeded shuffle of its steps; a cycle of slots, one per queueMix
// unit, visited in bit-reversed order (a low-discrepancy walk over the
// lengths), takes the next step of each slot's length. Cycles repeat
// until every step is placed: none is dropped.
func solveOrder(steps []step, seed uint64) []step {
	rng := rand.New(rand.NewSource(int64(seed)))
	byLen := make([][]step, maxStepJobs+1)
	for _, st := range steps {
		n := len(st.inst.Jobs)
		byLen[n] = append(byLen[n], st)
	}
	var slots []int
	for n, w := range queueMix {
		rng.Shuffle(len(byLen[n]), func(i, j int) { byLen[n][i], byLen[n][j] = byLen[n][j], byLen[n][i] })
		for k := 0; k < w; k++ {
			slots = append(slots, n)
		}
	}
	bits := 0
	for 1<<bits < len(slots) {
		bits++
	}
	var cycle []int
	for k := 0; k < 1<<bits; k++ {
		if i := reverseBits(k, bits); i < len(slots) {
			cycle = append(cycle, slots[i])
		}
	}
	out := make([]step, 0, len(steps))
	for len(out) < len(steps) {
		for _, n := range cycle {
			if len(byLen[n]) > 0 {
				out = append(out, byLen[n][0])
				byLen[n] = byLen[n][1:]
			}
		}
	}
	return out
}

// reverseBits reverses the low bits of k.
func reverseBits(k, bits int) int {
	r := 0
	for b := 0; b < bits; b++ {
		r = r<<1 | (k>>b)&1
	}
	return r
}

// timeDynpStep runs dynP's self-tuning step on one queue dynpRetimes
// times on a fresh scheduler and returns the fastest run, so a garbage
// collection left over from earlier work does not count against it.
func timeDynpStep(nowV int64, base *machine.Profile, waiting []*job.Job) (start, end time.Duration, err error) {
	sched := newPolicyScheduler()
	for k := 0; k < dynpRetimes; k++ {
		s := now()
		if _, err := sched.Step(nowV, base, waiting); err != nil {
			return 0, 0, err
		}
		if e := now(); k == 0 || e-s < end-start {
			start, end = s, e
		}
	}
	return start, end, nil
}

// solveRec is what the solve-pipeline hook saw of one rung.
type solveRec struct {
	start, end time.Duration
	vars, rows int
	seedObj    float64 // Eq. 2 objective of the seed incumbent on the rung's grid
	res        *mip.Result
}

func runSteps(seed uint64, seconds float64, traced bool, dir string) (*report, error) {
	rep := newReport()
	var setups []float64
	var steps []step
	var switches int
	for k := 0; k < stepSetupReps; k++ {
		t := time.Now()
		var err error
		steps, switches, err = harvest(seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)
	if len(steps) == 0 {
		return nil, fmt.Errorf("seed %d yields no step with %d-%d waiting jobs", seed, minStepJobs, maxStepJobs)
	}
	rep.layer["dynp.switches"] = float64(switches)

	runtime.GC() // every run starts measuring from its live set
	heap := startHeapSampler()
	mem0 := readMem()
	log := &spanLog{on: traced}
	// Steps are too few to split into windows: one window each.
	answer, result, resultSGM := make(windows, 1), make(windows, 1), make(windows, 1)
	var attemptMs, buildMs, solveMs, vars, rows, removedPct sample
	var nodes, pruned, heur, iters, lpSolves, warm, refac, degen, retries, solved float64
	var solveSec float64
	var losses []float64
	bestPolicy := map[string]int{}
	start := now()
	deadline := start + time.Duration(seconds*float64(time.Second))
	for i := 0; i < len(steps) && now() < deadline; i++ {
		st := steps[i]
		inst := st.inst

		// The policy answer: dynP's self-tuning step on the same queue.
		fastS, fastE, err := timeDynpStep(inst.Now, inst.Base, inst.Jobs)
		if err != nil {
			return nil, fmt.Errorf("dynp step %d: %w", i, err)
		}
		answer.add(0, fastE-fastS)
		log.add(0, i, "dynp", fastS, fastE)

		var recs []solveRec
		cfg := solvepipe.Config{
			Budget: stepBudget, Retries: 1,
			MIP:  mip.Options{MaxNodes: stepMaxNodes},
			Seed: st.best.Schedule,
			Hook: func(base solvepipe.SolveFunc) solvepipe.SolveFunc {
				return func(ctx context.Context, m *ilpsched.Model, opt mip.Options) (*ilpsched.Solution, error) {
					r := solveRec{vars: m.NumVariables(), rows: m.NumConstraints(), seedObj: math.NaN()}
					if opt.Incumbent != nil {
						r.seedObj = m.ObjectiveOfVector(opt.Incumbent)
					}
					r.start = now()
					sol, err := base(ctx, m, opt)
					r.end = now()
					if sol != nil {
						r.res = sol.MIP
					}
					recs = append(recs, r)
					return sol, err
				}
			},
		}
		s := now()
		out := solvepipe.Solve(context.Background(), cfg, inst)
		e := now()
		rep.attempted++

		root := log.add(0, i, "solvepipe", s, e)
		cursor := s
		for k, a := range out.Attempts {
			att := log.add(root, i, "ilpsched", cursor, cursor+a.Elapsed)
			cursor += a.Elapsed
			attemptMs.add(a.Elapsed)
			if k < len(recs) {
				log.add(att, i, "mip", recs[k].start, recs[k].end)
				buildMs.add(a.Elapsed - (recs[k].end - recs[k].start))
			}
		}
		retries += float64(out.Retries())
		for _, r := range recs {
			solveMs.add(r.end - r.start)
			solveSec += (r.end - r.start).Seconds()
			vars = append(vars, float64(r.vars))
			rows = append(rows, float64(r.rows))
			if res := r.res; res != nil {
				nodes += float64(res.Nodes)
				pruned += float64(res.Pruned)
				heur += float64(res.HeuristicHits)
				iters += float64(res.LPIters)
				lpSolves += float64(res.LPSolves)
				warm += float64(res.WarmStartHits)
				refac += float64(res.Refactorizations)
				degen += float64(res.DegeneratePivots)
			}
		}
		if p := out.Presolve; p != nil && p.VarsBefore > 0 {
			removedPct = append(removedPct, pct(float64(p.VarsRemoved()), float64(p.VarsBefore)))
		}

		if reason := stepFailure(out, recs); reason != "" {
			rep.failed++
			rep.notes = append(rep.notes, fmt.Sprintf("step %d (%d jobs, t=%d) failed: %s", i, len(inst.Jobs), inst.Now, reason))
			continue
		}
		sol := out.Solution
		checkStep(rep, i, st, sol, recs[len(recs)-1])
		counted := e - s
		if sol.MIP.Status == mip.Optimal {
			solved++
		} else {
			counted = stepBudget // a time-out counts at the budget in the mean
		}
		result.add(0, e-s)
		resultSGM.add(0, counted)
		ilpValue := metrics.SLDwA{}.Eval(sol.Compacted)
		losses = append(losses, metrics.LossPercent(metrics.Quality(metrics.SLDwA{}, ilpValue, st.best.Value)))
		bestPolicy[st.best.Policy.Name()]++
	}
	elapsed := (now() - start).Seconds()
	rep.e2e["heap_peak_mb"] = heap.stop()
	mem1 := readMem()

	rep.setLatency("answer", answer)
	rep.setLatency("result", result)
	rep.e2e["result_sgm_ms"] = resultSGM.each(func(s sample) float64 { return s.sgm(stepSGMShift) })
	rep.e2e["results_per_s"] = float64(rep.attempted) / elapsed
	rep.e2e["ok_pct"] = pct(float64(rep.attempted-rep.failed), float64(rep.attempted))
	rep.layer["mip.solved_pct"] = pct(solved, float64(rep.attempted))
	rep.name("solved_pct", "%", rep.layer["mip.solved_pct"], int(rep.attempted))
	rep.name("step_sgm_ms", "ms", rep.e2e["result_sgm_ms"], result.n())
	rep.name("step_p50_ms", "ms", rep.e2e["result_p50_ms"], result.n())
	rep.name("failed_pct", "%", 100-rep.e2e["ok_pct"], int(rep.attempted))

	l := rep.layer
	l["go.alloc_mb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
	l["go.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	l["dynp.step_us"] = 1000 * rep.e2e["answer_p50_ms"]
	l["dynp.queue_len"] = meanQueue(steps)
	l["solvepipe.attempt_ms"] = attemptMs.mean()
	l["solvepipe.retries"] = retries
	l["ilpsched.build_ms"] = buildMs.mean()
	l["ilpsched.vars"] = vars.mean()
	l["ilpsched.rows"] = rows.mean()
	l["presolve.vars_removed_pct"] = removedPct.mean()
	l["mip.solve_ms"] = solveMs.mean()
	n := float64(rep.attempted)
	l["mip.nodes"] = nodes / n
	l["mip.nodes_per_s"] = nodes / solveSec
	l["mip.pruned_pct"] = pct(pruned, nodes+pruned)
	l["mip.heuristic_hits"] = heur
	l["lp.iters"] = iters / n
	l["lp.iters_per_s"] = iters / solveSec
	l["lp.solves"] = lpSolves / n
	l["lp.warmstart_hit_pct"] = pct(warm, lpSolves)
	l["lp.refactorizations"] = refac / n
	l["lp.degenerate_pct"] = pct(degen, iters)

	rep.notes = append(rep.notes, fmt.Sprintf("%d harvested steps with %d-%d waiting jobs; %d solved in %.1f s with a %v budget each",
		len(steps), minStepJobs, maxStepJobs, rep.attempted, elapsed, stepBudget))
	rep.notes = append(rep.notes, fmt.Sprintf("paper output: mean Eq. 7 loss of the best policy %+.3f%% over %d steps; best policy per step %s",
		sample(losses).mean(), len(losses), formatCounts(bestPolicy)))
	if traced {
		for _, root := range []string{"solvepipe", "dynp"} {
			rep.addBreakdown(log.breakdown(root))
		}
		rep.writeSpans(log, dir, "paper-steps", seed)
	}
	return rep, nil
}

// stepFailure says why a step produced no usable schedule, or "".
// A search that stopped with an unproven incumbent although neither its
// budget nor its node limit ran out has stalled, and counts as failed.
func stepFailure(out *solvepipe.Outcome, recs []solveRec) string {
	if out.Failed() {
		return fmt.Sprintf("pipeline failed (%v): %v", out.LastFailure(), out.Err)
	}
	if len(recs) == 0 || recs[len(recs)-1].res == nil {
		return "no solver result reached the hook"
	}
	res := recs[len(recs)-1].res
	if res.Status != mip.Optimal && !res.DeadlineHit && res.Nodes < stepMaxNodes {
		return fmt.Sprintf("search stopped at %v after %d nodes without a limit", res.Status, res.Nodes)
	}
	return ""
}

// checkStep runs the paper-steps output checks on a solved step.
func checkStep(rep *report, i int, st step, sol *ilpsched.Solution, rec solveRec) {
	if err := sol.Compacted.Validate(st.inst.Base); err != nil {
		rep.fail("step %d: compacted schedule infeasible: %v", i, err)
	}
	if err := sol.Grid.Validate(st.inst.Base); err != nil {
		rep.fail("step %d: grid schedule infeasible: %v", i, err)
	}
	obj := ilpsched.ObjectiveOfSchedule(sol.Grid)
	if math.Abs(obj-sol.Objective) > 1e-6*math.Max(1, math.Abs(obj)) {
		rep.fail("step %d: Eq. 2 objective recomputes to %v, reported %v", i, obj, sol.Objective)
	}
	if !math.IsNaN(rec.seedObj) && obj > rec.seedObj*(1+1e-9) {
		rep.fail("step %d: objective %v is worse than the policy seed's %v", i, obj, rec.seedObj)
	}
	if r := sol.MIP; r.Status == mip.Optimal && r.Objective-r.BestBound > 1e-6*math.Max(1, math.Abs(r.Objective)) {
		rep.fail("step %d: reported optimal with bound %v below objective %v", i, r.BestBound, r.Objective)
	}
}

func meanQueue(steps []step) float64 {
	var s sample
	for _, st := range steps {
		s = append(s, float64(len(st.inst.Jobs)))
	}
	return s.mean()
}

func formatCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%d ", k, m[k])
	}
	return out
}
