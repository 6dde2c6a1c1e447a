package swf

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/quickcheck"
	"repro/internal/stats"
)

const sample = `; Computer: Cornell Theory Center SP2
; MaxProcs: 430
; note: header lines are ignored except Key: Value pairs

1 0 10 3600 16 -1 -1 16 7200 -1 1 3 1 -1 -1 -1 -1 -1
2 100 0 60 -1 -1 -1 4 120 -1 1 5 2 -1 -1 -1 -1 -1
3 200 0 -1 8 -1 -1 8 600 -1 5 1 1 -1 -1 -1 -1 -1
4 50 0 90 2 -1 -1 -1 -1 -1 1 1 1 -1 -1 -1 -1 -1
`

func TestParseSample(t *testing.T) {
	res, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Processors != 430 {
		t.Fatalf("Processors = %d, want 430", res.Trace.Processors)
	}
	if res.Skipped != 1 { // job 3 has run time -1
		t.Fatalf("Skipped = %d, want 1", res.Skipped)
	}
	if len(res.Trace.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(res.Trace.Jobs))
	}
	// Sorted by submit: job 1 (0), job 4 (50), job 2 (100).
	if res.Trace.Jobs[0].ID != 1 || res.Trace.Jobs[1].ID != 4 || res.Trace.Jobs[2].ID != 2 {
		t.Fatalf("order wrong: %v %v %v", res.Trace.Jobs[0].ID, res.Trace.Jobs[1].ID, res.Trace.Jobs[2].ID)
	}
	j1 := res.Trace.Jobs[0]
	if j1.Width != 16 || j1.Runtime != 3600 || j1.Estimate != 7200 || j1.User != 3 {
		t.Fatalf("job 1 fields wrong: %+v", j1)
	}
	// Job 4 has no requested procs/time: falls back to allocated/runtime.
	j4 := res.Trace.Jobs[1]
	if j4.Width != 2 || j4.Estimate != 90 || j4.Runtime != 90 {
		t.Fatalf("job 4 fallback wrong: %+v", j4)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseEstimateRaisedToRuntime(t *testing.T) {
	line := "1 0 0 100 4 -1 -1 4 50 -1 1 1 1 -1 -1 -1 -1 -1\n"
	res, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Jobs[0].Estimate != 100 {
		t.Fatalf("estimate = %d, want raised to runtime 100", res.Trace.Jobs[0].Estimate)
	}
}

func TestParseNegativeSubmitClamped(t *testing.T) {
	line := "1 -5 0 100 4 -1 -1 4 200 -1 1 1 1 -1 -1 -1 -1 -1\n"
	res, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Jobs[0].Submit != 0 {
		t.Fatalf("submit = %d, want 0", res.Trace.Jobs[0].Submit)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("1 2 3\n")); err == nil {
		t.Fatal("short line accepted")
	}
	if _, err := Parse(strings.NewReader(strings.Repeat("x ", 18) + "\n")); err == nil {
		t.Fatal("non-numeric line accepted")
	}
}

func TestParseFloatFields(t *testing.T) {
	// Some archive traces carry float submit times.
	line := "1 12.5 0 100.0 4 -1 -1 4 200 -1 1 1 1 -1 -1 -1 -1 -1\n"
	res, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Jobs[0].Submit != 12 {
		t.Fatalf("float submit parsed to %d, want 12", res.Trace.Jobs[0].Submit)
	}
}

func TestRoundTrip(t *testing.T) {
	tr := &job.Trace{Processors: 64, Note: "synthetic", Jobs: []*job.Job{
		{ID: 1, Submit: 0, Width: 8, Estimate: 3600, Runtime: 1800, User: 2, Group: 1},
		{ID: 2, Submit: 500, Width: 1, Estimate: 60, Runtime: 60, User: 3, Group: 1},
	}}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	res, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Processors != 64 || len(res.Trace.Jobs) != 2 {
		t.Fatalf("round trip lost data: %+v", res.Trace)
	}
	for i, want := range tr.Jobs {
		got := res.Trace.Jobs[i]
		if got.ID != want.ID || got.Submit != want.Submit || got.Width != want.Width ||
			got.Estimate != want.Estimate || got.Runtime != want.Runtime ||
			got.User != want.User || got.Group != want.Group {
			t.Fatalf("job %d round trip mismatch: got %+v want %+v", i, got, want)
		}
	}
}

// Property: Write then Parse preserves every scheduling-relevant field for
// arbitrary valid traces.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		tr := &job.Trace{Processors: 128, Note: "prop"}
		n := r.Intn(20) + 1
		var submit int64
		for i := 0; i < n; i++ {
			submit += int64(r.Intn(1000))
			run := int64(r.Intn(5000) + 1)
			tr.Jobs = append(tr.Jobs, &job.Job{
				ID: i + 1, Submit: submit, Width: r.Intn(128) + 1,
				Estimate: run + int64(r.Intn(1000)), Runtime: run,
				User: r.Intn(50), Group: r.Intn(5),
			})
		}
		var buf bytes.Buffer
		if Write(&buf, tr) != nil {
			return false
		}
		res, err := Parse(&buf)
		if err != nil || res.Skipped != 0 || len(res.Trace.Jobs) != n {
			return false
		}
		for i := range tr.Jobs {
			a, b := tr.Jobs[i], res.Trace.Jobs[i]
			if a.ID != b.ID || a.Submit != b.Submit || a.Width != b.Width ||
				a.Estimate != b.Estimate || a.Runtime != b.Runtime {
				return false
			}
		}
		return res.Trace.Validate() == nil
	}
	if err := quick.Check(f, quickcheck.Config(t, 60)); err != nil {
		t.Fatal(err)
	}
}

// Robustness: arbitrary garbage input must produce an error or a valid
// trace — never a panic and never an invalid trace.
func TestParseNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked on %q: %v", raw, r)
			}
		}()
		res, err := Parse(bytes.NewReader(raw))
		if err != nil {
			return true
		}
		return res.Trace.Validate() == nil || len(res.Trace.Jobs) == 0
	}
	if err := quick.Check(f, quickcheck.Config(t, 300)); err != nil {
		t.Fatal(err)
	}
	// Structured near-miss inputs.
	for _, s := range []string{
		"; header only\n",
		"1 0 0 10 0 0 0 0 0 0 1 1 1 0 0 0 0 0\n",  // zero procs: skipped
		"1 0 0 10 2 0 0 2 -5 0 1 1 1 0 0 0 0 0\n", // negative req time
		"nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan nan\n",
	} {
		if res, err := Parse(strings.NewReader(s)); err == nil {
			if len(res.Trace.Jobs) > 0 {
				if err := res.Trace.Validate(); err != nil {
					t.Fatalf("invalid trace accepted from %q: %v", s, err)
				}
			}
		}
	}
}

// Lenient mode on the corrupt-fixture corpus: truncated records with at
// least the scheduling-relevant leading fields are padded, shorter or
// unparseable ones are counted and skipped, and strict mode still errors
// on every fixture.
func TestParseLenientCorruptCorpus(t *testing.T) {
	cases := []struct {
		file      string
		jobs      int // schedulable jobs recovered in lenient mode
		malformed int
		badLines  []int
		skipped   int
	}{
		// Records 1 and 5 are clean; 2 (5 fields) and 3 (9 fields) are
		// padded; 4 (3 fields) is malformed.
		{"testdata/corrupt_truncated.swf", 4, 1, []int{10}, 0},
		// Records 1, 3 and 5 parse; 2 (bad number) and the garbage line
		// are malformed; 4 is a cancelled job (skipped, not malformed).
		{"testdata/corrupt_garbage.swf", 3, 2, []int{6, 8}, 1},
	}
	for _, tc := range cases {
		raw, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: strict Parse accepted a corrupt trace", tc.file)
		}
		res, err := ParseWith(bytes.NewReader(raw), Options{Lenient: true})
		if err != nil {
			t.Fatalf("%s: lenient parse: %v", tc.file, err)
		}
		if got := len(res.Trace.Jobs); got != tc.jobs {
			t.Errorf("%s: %d jobs, want %d", tc.file, got, tc.jobs)
		}
		if res.Malformed != tc.malformed {
			t.Errorf("%s: Malformed = %d, want %d", tc.file, res.Malformed, tc.malformed)
		}
		if len(res.BadLines) != len(tc.badLines) {
			t.Errorf("%s: BadLines = %v, want %v", tc.file, res.BadLines, tc.badLines)
		} else {
			for i, ln := range tc.badLines {
				if res.BadLines[i] != ln {
					t.Errorf("%s: BadLines = %v, want %v", tc.file, res.BadLines, tc.badLines)
					break
				}
			}
		}
		if res.Skipped != tc.skipped {
			t.Errorf("%s: Skipped = %d, want %d", tc.file, res.Skipped, tc.skipped)
		}
		if err := res.Trace.Validate(); err != nil {
			t.Errorf("%s: recovered trace invalid: %v", tc.file, err)
		}
	}
}

// A truncated record recovered by lenient mode reconstructs the job from
// the leading fields with sentinel fallbacks (width from alloc procs,
// estimate from runtime).
func TestParseLenientPaddedRecord(t *testing.T) {
	res, err := ParseWith(strings.NewReader("7 30 -1 200 8\n"), Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Jobs) != 1 || res.Malformed != 0 {
		t.Fatalf("jobs=%d malformed=%d, want 1/0", len(res.Trace.Jobs), res.Malformed)
	}
	j := res.Trace.Jobs[0]
	if j.ID != 7 || j.Submit != 30 || j.Runtime != 200 || j.Width != 8 || j.Estimate != 200 {
		t.Fatalf("unexpected job %+v", j)
	}
}

// BadLines is capped but Malformed keeps counting.
func TestParseLenientBadLineCap(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < maxBadLines+25; i++ {
		sb.WriteString("garbage\n")
	}
	res, err := ParseWith(strings.NewReader(sb.String()), Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Malformed != maxBadLines+25 {
		t.Fatalf("Malformed = %d, want %d", res.Malformed, maxBadLines+25)
	}
	if len(res.BadLines) != maxBadLines {
		t.Fatalf("len(BadLines) = %d, want %d", len(res.BadLines), maxBadLines)
	}
}
