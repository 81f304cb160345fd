package tap

import (
	"encoding/json"
	"os"
	"testing"
)

// TestTrajectoryCoversTheBenchmark: BENCH_e2e.json, the committed
// end-to-end trajectory, holds parent and change runs of every workload
// BENCHMARK.json declares, and each reports every end-to-end metric in
// BENCHMARK.json's unit. A claim about an end-to-end metric is read
// against these rows.
func TestTrajectoryCoversTheBenchmark(t *testing.T) {
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
	}
	var traj struct {
		Runs []struct {
			Side     string `json:"side"`
			Workload string `json:"workload"`
			Metrics  map[string]struct {
				Unit string `json:"unit"`
			} `json:"metrics"`
		} `json:"runs"`
	}
	for file, into := range map[string]any{"BENCHMARK.json": &bench, "BENCH_e2e.json": &traj} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, into); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	}
	if len(bench.Workloads) == 0 || len(bench.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or no end-to-end metrics")
	}
	unit := make(map[string]string)
	for _, m := range bench.EndToEnd {
		unit[m.Name] = m.Unit
	}
	type row struct{ side, workload, metric string }
	have := make(map[row]bool)
	for i, r := range traj.Runs {
		if r.Side != "parent" && r.Side != "change" {
			t.Errorf("run %d: side %q, want parent or change", i, r.Side)
		}
		for name, m := range r.Metrics {
			if want, ok := unit[name]; ok && m.Unit != want {
				t.Errorf("run %d (%s %s): %s in %q, BENCHMARK.json says %q", i, r.Side, r.Workload, name, m.Unit, want)
			}
			have[row{r.Side, r.Workload, name}] = true
		}
	}
	for _, w := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			for _, side := range []string{"parent", "change"} {
				if !have[row{side, w.Name, m.Name}] {
					t.Errorf("BENCH_e2e.json has no %s run of %s reporting %s", side, w.Name, m.Name)
				}
			}
		}
	}
}
