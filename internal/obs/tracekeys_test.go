package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dynp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/schedd"
	"repro/internal/sim"
	"repro/internal/workload"
)

// repeatedKeys decodes one trace line, a flat JSON object, and returns
// every key that occurs more than once. encoding/json silently keeps
// the last of a repeated key, so a plain Unmarshal cannot see the
// collision.
func repeatedKeys(line []byte) ([]string, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, fmt.Errorf("not a JSON object (%v)", err)
	}
	var dups []string
	seen := map[string]bool{}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if seen[key.(string)] {
			dups = append(dups, key.(string))
		}
		seen[key.(string)] = true
		val, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if _, nested := val.(json.Delim); nested {
			return nil, fmt.Errorf("field %q is not a scalar", key)
		}
	}
	return dups, nil
}

func TestRepeatedKeysFindsCollision(t *testing.T) {
	dups, err := repeatedKeys([]byte(`{"t":0.5,"seq":1,"ev":"x","t":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(dups) != "[t]" {
		t.Fatalf("repeated keys = %v, want [t]", dups)
	}
}

// checkNoRepeatedKeys fails the test on any trace line with a repeated
// key, and returns how many lines it read.
func checkNoRepeatedKeys(t *testing.T, what string, trace []byte) int {
	t.Helper()
	n := 0
	for _, line := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		n++
		dups, err := repeatedKeys(line)
		if err != nil {
			t.Fatalf("%s: bad trace line %s: %v", what, line, err)
		}
		if len(dups) > 0 {
			t.Fatalf("%s: repeated keys %v in trace line %s", what, dups, line)
		}
	}
	return n
}

func newScheduler(t *testing.T) *dynp.Scheduler {
	t.Helper()
	m, err := metrics.ByName("SLDwA")
	if err != nil {
		t.Fatal(err)
	}
	s, err := dynp.New([]policy.Policy{policy.FCFS{}, policy.SJF{}, policy.LJF{}}, m, dynp.AdvancedDecider{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Every line the simulator and the service emit decodes with each key
// once: events carry virtual time as "vt", never as the tracer's own
// wall-clock "t".
func TestTraceLinesHaveNoRepeatedKeys(t *testing.T) {
	tr, err := workload.Generate(workload.CTC(), 60, 3)
	if err != nil {
		t.Fatal(err)
	}

	var simTrace bytes.Buffer
	cfg := sim.DefaultConfig()
	cfg.Trace = obs.NewTracer(&simTrace)
	s, err := sim.New(tr, newScheduler(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := checkNoRepeatedKeys(t, "sim", simTrace.Bytes()); n < len(tr.Jobs) {
		t.Fatalf("sim traced only %d lines for %d jobs", n, len(tr.Jobs))
	}

	var srvTrace bytes.Buffer
	clock := schedd.NewManualClock(0)
	c, err := schedd.New(schedd.Config{
		Machine:   tr.Processors,
		Scheduler: newScheduler(t),
		Clock:     clock,
		Trace:     obs.NewTracer(&srvTrace),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for _, j := range tr.Jobs[:20] {
		ctx := obs.WithTraceID(context.Background(), fmt.Sprintf("req-%d", j.ID))
		if _, err := c.SubmitCtx(ctx, schedd.SubmitRequest{Width: j.Width, Estimate: j.Estimate, Runtime: j.Runtime}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Set(1 << 40) // past every completion: the drain runs the rest
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if n := checkNoRepeatedKeys(t, "schedd", srvTrace.Bytes()); n < 20 {
		t.Fatalf("schedd traced only %d lines", n)
	}
}

// lineKeys are the keys the tracer writes on every line; an event field
// with one of these names would repeat it.
var lineKeys = map[string]bool{"t": true, "seq": true, "ev": true}

// The same rule, for every event in the repository, including the ones
// the test above does not drive: no obs field constructor takes a
// line key as its name.
func TestNoEventFieldUsesALineKey(t *testing.T) {
	root := repoRoot(t)
	fields := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || name == ".git" || name == ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "obs" {
				return true
			}
			switch sel.Sel.Name {
			case "Int", "Float", "Str", "Bool":
			default:
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			key, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			fields++
			if lineKeys[key] {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s:%d: event field %q repeats a key the tracer writes on every line", rel, fset.Position(call.Pos()).Line, key)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fields < 50 {
		t.Fatalf("only %d event fields found — scan broken?", fields)
	}
}
