package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// smokeRun is a run small enough for `go test`: short rounds, two set-up
// samples, no layer probes. It makes no timing assertion.
func smokeRun(t *testing.T, w workload, traced bool) result {
	t.Helper()
	before := runtime.NumGoroutine()
	cfg := defaultConfig(w, 1, 0.2, traced)
	cfg.rounds, cfg.warmup, cfg.setups, cfg.probes = 1, 50*time.Millisecond, 2, false
	if traced { // the traced round replaces the last untraced one
		cfg.rounds, cfg.seconds = 2, 0.4
	}
	cfg.spans = filepath.Join(t.TempDir(), "spans.json")
	res := &runResult{cfg: cfg}
	if err := run(res); err != nil {
		t.Fatal(err)
	}
	if !res.correct() || res.failed != 0 {
		t.Fatalf("%s: not correct: %d failed ops, problems %v", w.name, res.failed, res.problems)
	}
	if res.rounds[0].ops < 1 {
		t.Fatalf("%s: no verified op in the timed segment", w.name)
	}
	out, err := report(res)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%s: %d goroutines after the run, %d before", w.name, n, before)
	}
	if traced {
		var spans []span
		data, err := os.ReadFile(cfg.spans)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Fatalf("%s: span file: %d spans, %v", w.name, len(spans), err)
		}
	}
	return out
}

// checkResultLine holds the result to the driver's contract: exactly four
// keys, and exactly the declared metrics, each a finite number with its
// declared unit.
func checkResultLine(t *testing.T, out result, defs []metricDef, positive bool) {
	t.Helper()
	line, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("%d metrics in the result, %d declared", len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (positive && m.Value <= 0) {
			t.Errorf("metric %s = %v %q, want a finite value in %q", d.name, m.Value, m.Unit, d.unit)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		checkResultLine(t, smokeRun(t, w, false), endToEnd, true)
	}
}

func TestSmokeTraced(t *testing.T) {
	w, _ := findWorkload("tcp_small")
	checkResultLine(t, smokeRun(t, w, true), perLayer, false)
}

// BENCHMARK.json and the tables in this package must say the same thing.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) || !reflect.DeepEqual(decl.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", decl.Command, decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d", decl.RunSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the package", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the package", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, want %v (bounded=%v)", kind, d.name, g.Bound, d.bound, bounded)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
}
