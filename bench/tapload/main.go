// Command tapload is the repo's end-to-end benchmark: a seven-node
// loopback TCP cluster driven through procnode.RoundTripStream, and a
// simulated stream population driven through experiments.ExtThroughput,
// each measured as a closed loop with one client and one op outstanding.
// It is one foreground process and starts no other. See bench/README.md.
//
//	tapload --workload tcp_small --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "one of: "+workloadNames())
	seed := flag.Uint64("seed", 1, "derives the payload bytes and the simulator seeds")
	seconds := flag.Float64("seconds", 24, "timed seconds per run, one round per second")
	trace := flag.Int("trace", 0, "1: trace the last round, probe the layers, print per-layer metrics")
	spans := flag.String("spans", "", "where a traced run writes its spans (default .bench_build/tapload-spans-<workload>.json)")
	deadline := flag.Duration("deadline", 0, "abort the run after this long (default 1.5 x the planned run)")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice, A/B/A/B, and fail if two medians of a metric differ by more than its bound")
	flag.Parse()

	if err := pinToOneCPU(); err != nil {
		// Still one P; only the OS may now move the process between CPUs.
		fmt.Fprintf(os.Stderr, "tapload: not pinned to one CPU: %v\n", err)
	}
	printEnv(*seed)
	if *selfcheck {
		os.Exit(selfCheck(*seed, *seconds))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "tapload: unknown workload %q; want one of: %s\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "tapload: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := defaultConfig(w, *seed, *seconds, *trace == 1)
	if *spans != "" {
		cfg.spans = *spans
	}
	if *deadline == 0 {
		*deadline = cfg.planned() * 3 / 2
	}

	res := &runResult{cfg: cfg}
	stop := watchdog(res, *deadline)
	err := run(res)
	stop.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tapload: %v\n", err)
		os.Exit(1)
	}
	out, err := report(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tapload: %v\n", err)
		os.Exit(1)
	}
	printResult(out)
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// watchdog bounds the run: past the deadline it prints what the run has
// so far, marked aborted, and exits 2. The benchmark is one process with
// no children, so exiting is also the teardown: every socket and
// goroutine goes with it. Stop the returned timer when the run ends.
func watchdog(res *runResult, after time.Duration) *time.Timer {
	return time.AfterFunc(after, func() {
		res.mu.Lock()
		fmt.Fprintf(os.Stderr, "tapload: run exceeded its %v deadline\n", after)
		out := result{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
		if len(res.rounds) > 0 {
			out.Metrics = named(endToEnd, endToEndValues(res.rounds, res.setups))
		}
		line, _ := json.Marshal(struct {
			result
			Aborted bool `json:"aborted"`
		}{out, true})
		fmt.Println(string(line))
		os.Exit(2)
	})
}

// named attaches units to values, keeping exactly the metrics of defs.
func named(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// report prints the run for a reader and returns the result line: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func report(res *runResult) (result, error) {
	cfg := res.cfg
	e2e := endToEndValues(res.rounds, res.setups)
	out := result{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed}

	var pooled []float64
	perRound := make([]float64, len(res.rounds))
	for i, r := range res.rounds {
		pooled = append(pooled, r.latMs...)
		perRound[i] = r.opsPerS()
	}
	fmt.Printf("workload %s: %d untraced rounds of %.2f s, %d timed ops, %d set-up samples; attempted %d, failed %d\n",
		cfg.w.name, len(res.rounds), cfg.seconds/float64(cfg.rounds), len(pooled), len(res.setups), res.attempted, res.failed)
	for _, d := range endToEnd {
		fmt.Printf("  %-16s %14.6g %-5s (%s is better, bound %.2f)\n", d.name, e2e[d.name], d.unit, d.better, d.bound)
	}
	fmt.Printf("  round spread of ops_per_s (IQR/median over rounds): %.4f\n", spread(perRound))
	fmt.Printf("  ops_per_s by round:")
	for _, v := range perRound {
		fmt.Printf(" %.4g", v)
	}
	fmt.Println()
	for _, p := range res.problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}

	if !cfg.traced {
		out.Metrics = named(endToEnd, e2e)
		return out, nil
	}
	layer, err := layerValues(res, e2e, pooled, perRound)
	if err != nil {
		return out, err
	}
	if err := res.rec.write(cfg.spans); err != nil {
		return out, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("  %d spans written to %s\n", len(res.rec.spans), cfg.spans)
	out.Metrics = named(perLayer, layer)
	return out, nil
}

func printResult(out result) {
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tapload: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printEnv records what the numbers were taken on.
func printEnv(seed uint64) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	kernel := "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	fmt.Printf("env: %s %s/%s GOMAXPROCS=%d nproc=%d kernel=%s commit=%s seed=%d; traffic crosses the host's loopback, not a link\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), kernel, commit, seed)
}
