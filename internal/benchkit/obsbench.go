package benchkit

import (
	"context"
	"io"
	"testing"

	"repro/internal/obs"
)

// ObsServing is the serving-hot-path instrument fixture: one Op is the
// observability work the schedd admission + replan path performs per
// accepted submission — a labeled source counter, an admission span
// (ctx-scoped begin/end), the submit point event, a labeled replan
// duration observation and a labeled outcome counter. The modes:
//
//	disabled — nil Registry and Tracer: the no-op default every caller
//	           gets; this path must stay allocation-free.
//	labeled  — Registry attached (labeled counters/histograms live),
//	           no event tracing.
//	tracing  — full JSONL event stream to io.Discard plus the labels.
type ObsServing struct {
	reg  *obs.Registry
	tr   *obs.Tracer
	ctx  context.Context
	vSub *obs.CounterVec
	vOut *obs.CounterVec
	hDur *obs.HistogramVec
}

// NewObsServing builds the fixture for one of the modes above.
func NewObsServing(mode string) *ObsServing {
	o := &ObsServing{}
	switch mode {
	case "labeled":
		o.reg = obs.NewRegistry()
	case "tracing":
		o.reg = obs.NewRegistry()
		o.tr = obs.NewTracer(io.Discard)
	}
	bounds := []float64{1, 5, 10, 50, 100, 500, 1000}
	o.vSub = o.reg.CounterVec("schedd.submits.by_source", "source")
	o.vOut = o.reg.CounterVec("schedd.step.outcome", "outcome", "policy")
	o.hDur = o.reg.HistogramVec("schedd.replan.duration.ms", bounds, "kind")
	o.ctx = obs.WithTraceID(context.Background(), "bench-trace-id")
	return o
}

// Op performs the per-submission instrument work of the serving path.
func (o *ObsServing) Op(i int) {
	o.vSub.With("loadgen").Inc()
	ctx, span := o.tr.StartSpanCtx(o.ctx, "schedd.admit",
		obs.Str("source", "loadgen"), obs.Int("width", 4))
	o.tr.EmitCtx(ctx, "schedd.submit",
		obs.Int("vt", int64(i)),
		obs.Int("job", int64(i)),
		obs.Int("width", 4),
		obs.Str("source", "loadgen"))
	span.End(obs.Str("outcome", "accepted"), obs.Int("job", int64(i)))
	o.hDur.With("step").Observe(float64(i % 100))
	o.vOut.With("ok", "FCFS").Inc()
}

// BenchObsServingPath returns the benchmark body measuring the serving
// path's observability overhead in the given mode.
func BenchObsServingPath(mode string) func(b *testing.B) {
	return func(b *testing.B) {
		o := NewObsServing(mode)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Op(i)
		}
	}
}
