package main

import (
	"fmt"
	"os"
)

// selfCheck is the benchmark's own noise gate. It runs every workload
// twice from this one binary, all workloads then all workloads again
// (A/B/A/B), so that a workload's two runs are minutes apart, and fails if
// two medians of any end-to-end metric differ by more than the metric's
// bound: identical code must not look like a regression of itself.
func selfCheck(seed uint64, seconds float64) int {
	var passes [2]map[string]map[string]float64
	ok := true
	for p := range passes {
		passes[p] = make(map[string]map[string]float64)
		for _, w := range workloads {
			res := &runResult{cfg: defaultConfig(w, seed, seconds, false)}
			stop := watchdog(res, res.cfg.planned()*3/2)
			err := run(res)
			stop.Stop()
			if err != nil {
				fmt.Fprintf(os.Stderr, "tapload: %s: %v\n", w.name, err)
				return 1
			}
			if !res.correct() {
				fmt.Printf("selfcheck: %s pass %d was not correct (%d failed ops, %d problems)\n", w.name, p+1, res.failed, len(res.problems))
				ok = false
			}
			passes[p][w.name] = endToEndValues(res.rounds, res.setups)
		}
	}
	fmt.Printf("| workload | metric | first | second | second worse by | bound | |\n|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := passes[0][w.name][d.name], passes[1][w.name][d.name]
			// Either order may be the "parent": the larger disagreement counts.
			worse := worseBy(a, b, d.better == "higher")
			verdict := "ok"
			if worse > d.bound || worseBy(b, a, d.better == "higher") > d.bound {
				verdict = "EXCEEDS"
				ok = false
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.1f%% | %.0f%% | %s |\n", w.name, d.name, a, b, 100*worse, 100*d.bound, verdict)
		}
	}
	if !ok {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: passed")
	return 0
}
