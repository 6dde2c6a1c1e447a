package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// timing is one scheduled operation as the open-loop driver saw it. All
// fields are offsets from the run's start.
type timing struct {
	Due  time.Duration // when the schedule says the operation is sent
	Free time.Duration // when a sender became free to take it
	Sent time.Duration // when it was actually sent
	Done time.Duration // when its answer arrived
}

// latency is measured from the due time, so time an operation spent
// waiting behind a stalled one is charged to it instead of hidden.
func (t timing) latency() time.Duration { return t.Done - t.Due }

// late is the driver's own lateness: how long after the operation was
// both due and had a free sender it went out. Waiting for a busy sender
// is the server's doing and is not counted here.
func (t timing) late() time.Duration {
	if t.Free > t.Due {
		return t.Sent - t.Free
	}
	return t.Sent - t.Due
}

// loopResult is what one open-loop run recorded.
type loopResult struct {
	Timings     []timing
	InflightMax int
}

// Validity limits of an open-loop run. A run whose driver wakes up late,
// or that ends behind its schedule, did not offer the load it claims.
const (
	maxDriverLateP99 = 20 * time.Millisecond
	maxBehind        = time.Second
)

// validate reports why the run cannot stand for the offered load, or nil.
func (r *loopResult) validate() error {
	var late sample
	for _, t := range r.Timings {
		late.add(t.late())
	}
	if p := late.quantile(0.99); p > ms(maxDriverLateP99) {
		return fmt.Errorf("driver late p99 %.2f ms exceeds %v", p, maxDriverLateP99)
	}
	if n := len(r.Timings); n > 0 {
		if behind := r.Timings[n-1].Sent - r.Timings[n-1].Due; behind > maxBehind {
			return fmt.Errorf("run fell behind its schedule by %v", behind)
		}
	}
	return nil
}

// runOpenLoop sends operation i at start+due[i] (due must be sorted) from
// at most senders goroutines, each running one operation at a time, so
// at most senders requests are in flight. It returns once every
// operation has been sent and answered, or ctx is done.
func runOpenLoop(ctx context.Context, start time.Time, due []time.Duration, senders int, send func(i int)) *loopResult {
	res := &loopResult{Timings: make([]timing, len(due))}
	var next, inflight, inflightMax atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				free := time.Since(start)
				if wait := due[i] - free; wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
				}
				sent := time.Since(start)
				n := inflight.Add(1)
				for m := inflightMax.Load(); n > m && !inflightMax.CompareAndSwap(m, n); m = inflightMax.Load() {
				}
				send(i)
				inflight.Add(-1)
				res.Timings[i] = timing{Due: due[i], Free: free, Sent: sent, Done: time.Since(start)}
			}
		}()
	}
	wg.Wait()
	res.InflightMax = int(inflightMax.Load())
	return res
}
