package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run, recorded by the benchmark
// around its calls into a layer. Spans of one request or step share Req;
// Parent is 0 for a root. Name is the layer the span's self time is
// charged to.
type span struct {
	ID     int
	Parent int
	Req    int
	Name   string
	Start  time.Duration
	End    time.Duration
}

// spanLog keeps spans in memory until the run ends. The zero value
// records nothing, which is how an untraced run costs nothing.
type spanLog struct {
	on    bool
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID (0 when tracing is off).
func (l *spanLog) add(parent, req int, name string, start, end time.Duration) int {
	if !l.on {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		rec := struct {
			ID      int     `json:"id"`
			Parent  int     `json:"parent"`
			Req     int     `json:"req"`
			Name    string  `json:"name"`
			StartUs float64 `json:"start_us"`
			EndUs   float64 `json:"end_us"`
		}{s.ID, s.Parent, s.Req, s.Name, float64(s.Start) / 1e3, float64(s.End) / 1e3}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// layerRow is one row of a blocking-path breakdown: the mean self time a
// layer contributes to one root of the path.
type layerRow struct {
	Layer  string
	MeanMs float64
}

// pathBreakdown is the self-time table of one root kind (one end-to-end
// latency) and whether it reconciles with the root's mean duration.
type pathBreakdown struct {
	Root   string
	Roots  int
	MeanMs float64 // mean root duration: the end-to-end mean
	Layers []layerRow
	SumMs  float64 // sum of the layers' mean self times
}

// reconcileTolerance is how far, as a share of the end-to-end mean, the
// layer sum may drift before the trace is reported as not reconciling.
const reconcileTolerance = 0.02

func (b pathBreakdown) errPct() float64 { return pct(math.Abs(b.SumMs-b.MeanMs), b.MeanMs) }

func (b pathBreakdown) reconciles() bool { return b.errPct() <= 100*reconcileTolerance }

// breakdown computes, for every root named root, each layer's self time:
// a span's duration minus the part of it its children cover, with
// children clipped to their parent.
func (l *spanLog) breakdown(root string) pathBreakdown {
	children := map[int][]int{}
	for i, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	b := pathBreakdown{Root: root}
	self := map[string]time.Duration{}
	var walk func(i int)
	walk = func(i int) {
		s := l.spans[i]
		var iv [][2]time.Duration
		for _, c := range children[s.ID] {
			cs := l.spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
			walk(c)
		}
		self[s.Name] += s.End - s.Start - union(iv)
	}
	var total time.Duration
	for i, s := range l.spans {
		if s.Parent == 0 && s.Name == root {
			b.Roots++
			total += s.End - s.Start
			walk(i)
		}
	}
	if b.Roots == 0 {
		return b
	}
	b.MeanMs = ms(total) / float64(b.Roots)
	for name, d := range self {
		row := layerRow{Layer: name, MeanMs: ms(d) / float64(b.Roots)}
		b.Layers = append(b.Layers, row)
		b.SumMs += row.MeanMs
	}
	sort.Slice(b.Layers, func(i, j int) bool { return b.Layers[i].MeanMs > b.Layers[j].MeanMs })
	return b
}

// union is the total length covered by the intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			total += v[1] - lo
			end = v[1]
		}
	}
	return total
}

func (b pathBreakdown) print(w io.Writer) {
	fmt.Fprintf(w, "layer table for %q (%d roots, end-to-end mean %.3f ms):\n", b.Root, b.Roots, b.MeanMs)
	for _, r := range b.Layers {
		fmt.Fprintf(w, "  %-20s self %10.4f ms  %5.1f%%\n", r.Layer, r.MeanMs, pct(r.MeanMs, b.MeanMs))
	}
	verdict := "reconciles"
	if !b.reconciles() {
		verdict = "DOES NOT reconcile"
	}
	fmt.Fprintf(w, "  sum of layers %.4f ms vs end-to-end %.4f ms: %.2f%% apart, %s (tolerance %.0f%%)\n",
		b.SumMs, b.MeanMs, b.errPct(), verdict, 100*reconcileTolerance)
}
