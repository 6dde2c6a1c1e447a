package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestStallChargesLaterRequests drives a fake server that stalls one
// request. The requests due during the stall queue behind it, and the
// driver must charge that wait to their latency (timed from the due
// time) rather than hide it by timing from the actual send, and must not
// blame its own lateness for it.
func TestStallChargesLaterRequests(t *testing.T) {
	const (
		n       = 60
		gap     = 2 * time.Millisecond
		stallAt = 10
		stall   = 200 * time.Millisecond
	)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()

	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	res := runOpenLoop(context.Background(), time.Now().Add(10*time.Millisecond), due, 1, func(i int) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})

	if res.InflightMax != 1 {
		t.Errorf("in flight at once: %d, want 1 with one sender", res.InflightMax)
	}
	// Every request due before the stalled one returned was held up by
	// it: its latency from due must cover the rest of the stall.
	stallEnd := res.Timings[stallAt].Done
	for i := stallAt + 1; i < n && due[i] < stallEnd-20*time.Millisecond; i++ {
		tm := res.Timings[i]
		if min := stallEnd - tm.Due; tm.latency() < min {
			t.Errorf("request %d: latency %v hides the stall (at least %v)", i, tm.latency(), min)
		}
		if service := tm.Done - tm.Sent; tm.latency() < service+10*time.Millisecond {
			t.Errorf("request %d: latency %v barely exceeds its service time %v", i, tm.latency(), service)
		}
		if tm.late() > 20*time.Millisecond {
			t.Errorf("request %d: the server's stall was charged to the driver (late %v)", i, tm.late())
		}
	}
	if err := res.validate(); err != nil {
		t.Errorf("a run that recovered from the stall is valid: %v", err)
	}
}

// TestFallingBehindIsInvalid checks that a run ending far behind its
// schedule is marked invalid.
func TestFallingBehindIsInvalid(t *testing.T) {
	r := &loopResult{Timings: []timing{{Due: 0, Free: 0, Sent: 0, Done: time.Millisecond}, {Due: time.Millisecond, Free: 3 * time.Second, Sent: 3 * time.Second, Done: 3 * time.Second}}}
	if r.validate() == nil {
		t.Fatal("a run that fell 3s behind its schedule passed validation")
	}
}
