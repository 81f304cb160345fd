// Command tapbench is the benchmark-regression harness: it runs the
// repository's benchmarks through `go test -bench` and emits a
// machine-readable JSON report (ns/op, B/op, allocs/op and any custom
// metrics, per benchmark), suitable for committing as BENCH_baseline.json
// / BENCH_current.json and for CI artifacts.
//
// Benchmarks are grouped by cost so each group can use a sampling policy
// matched to its runtime:
//
//   - hot:     the steady-state hot paths (LayeredSeal/LayeredPeel, the
//     TunnelPool probe cycle, the kernel schedule/run cycle, the
//     windowed stream transfer, the obs counter/histogram increment
//     paths that instrument all of them, the deployed relay's
//     peel-and-forward and responder's echo, the deployed round trip
//     they are part of, and seeding a fresh rng stream, which every
//     initiator of every figure trial pays) — many timed samples,
//     minimum taken, so shared-VM scheduler noise does not masquerade
//     as a regression (or an improvement);
//   - micro:   the remaining micro-benchmarks — a few short samples;
//   - figures: the figure/extension/ablation experiment benchmarks —
//     one iteration each (they are end-to-end experiments; their value
//     here is allocation accounting and coarse trend, not ns precision).
//
// Compare a fresh run against a committed baseline with -baseline:
//
//	go run ./cmd/tapbench -groups hot -baseline BENCH_baseline.json
//
// The comparison is a report, not a gate: the exit status stays 0 unless
// -max-regress is set to a positive percentage.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's aggregated measurement. When a group runs
// count > 1, the sample with the lowest ns/op is reported whole: minima
// are robust to the one-sided noise of a shared machine, and keeping the
// whole winning sample (rather than per-field minima) keeps the fields
// mutually consistent.
type Result struct {
	Name        string             `json:"name"`
	Group       string             `json:"group"`
	Samples     int                `json:"samples"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	MBPerS      float64            `json:"mb_per_s,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the JSON document tapbench emits.
type Report struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	NumCPU      int      `json:"num_cpu"`
	Method      string   `json:"method"`
	Args        []string `json:"args"`
	Benchmarks  []Result `json:"benchmarks"`
}

// group describes one benchmark family and its sampling policy.
type group struct {
	name      string
	pattern   string // -bench regex
	benchtime string
	count     int
}

var defaultGroups = []group{
	{name: "hot", pattern: "^(BenchmarkLayeredSeal|BenchmarkLayeredPeel|BenchmarkPoolProbeCycle|BenchmarkKernelScheduleRun|BenchmarkStreamThroughput|BenchmarkObsCounterInc|BenchmarkObsHistogramObserve|BenchmarkRelayForward|BenchmarkExitEcho|BenchmarkRoundTripStream|BenchmarkNewStream)$", benchtime: "500ms", count: 10},
	{name: "micro", pattern: "^(BenchmarkSeal|BenchmarkOpen|BenchmarkSealer|BenchmarkNewSealer|BenchmarkTransportSendBulk|BenchmarkPastryRoute|BenchmarkLeafSetClosestTo|BenchmarkOverlayBuild|BenchmarkTunnelWalk|BenchmarkPastryJoinProtocol|BenchmarkReplicaMigration|BenchmarkWorldSetup)", benchtime: "200ms", count: 3},
	{name: "figures", pattern: "^(BenchmarkFig|BenchmarkExt|BenchmarkAblation)", benchtime: "1x", count: 1},
}

func main() {
	var (
		groupsFlag      = flag.String("groups", "hot,micro,figures", "comma-separated groups to run (hot, micro, figures)")
		only            = flag.String("only", "", "extra regex ANDed onto each group's benchmark pattern; go test runs only the benchmarks it can match")
		out             = flag.String("out", "", "write the JSON report to this file (default: stdout)")
		baseline        = flag.String("baseline", "", "compare against this previously captured JSON report")
		quick           = flag.Bool("quick", false, "force -benchtime=1x -count=1 for every group (CI smoke mode)")
		pkgs            = flag.String("pkgs", "./...", "package pattern handed to go test")
		maxRegress      = flag.Float64("max-regress", 0, "exit non-zero if any ns/op regresses more than this percent vs -baseline (0 = report only)")
		maxAllocRegress = flag.Float64("max-alloc-regress", 0, "exit non-zero if any allocs/op regresses more than this percent vs -baseline (0 = report only)")
		cpuProfile      = flag.String("cpuprofile", "", "pass -cpuprofile to go test (requires -pkgs to name a single package)")
		memProfile      = flag.String("memprofile", "", "pass -memprofile to go test (requires -pkgs to name a single package)")
	)
	flag.Parse()

	if *cpuProfile != "" || *memProfile != "" {
		// go test rejects -cpuprofile/-memprofile across multiple packages,
		// and successive groups would overwrite the profile file: profiling
		// runs must pin one package and one group.
		if strings.Contains(*pkgs, "...") {
			fmt.Fprintln(os.Stderr, "tapbench: -cpuprofile/-memprofile need -pkgs to name a single package (e.g. -pkgs .)")
			os.Exit(2)
		}
		if strings.Contains(*groupsFlag, ",") {
			fmt.Fprintln(os.Stderr, "tapbench: -cpuprofile/-memprofile need a single -groups entry (e.g. -groups hot)")
			os.Exit(2)
		}
	}
	profileArgs := func() (out []string) {
		if *cpuProfile != "" {
			out = append(out, "-cpuprofile="+*cpuProfile)
		}
		if *memProfile != "" {
			out = append(out, "-memprofile="+*memProfile)
		}
		return out
	}()

	selected := map[string]bool{}
	for _, g := range strings.Split(*groupsFlag, ",") {
		if g = strings.TrimSpace(g); g != "" {
			selected[g] = true
		}
	}

	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Method:      "per group: go test -run=^$ -bench=<pattern> -benchmem -benchtime=<t> -count=<n>; per benchmark, the whole sample with minimum ns/op is kept",
		Args:        os.Args[1:],
	}
	for _, g := range defaultGroups {
		if !selected[g.name] {
			continue
		}
		if *quick {
			g.benchtime, g.count = "1x", 1
		}
		results, err := runGroup(g, *only, *pkgs, profileArgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tapbench: group %s: %v\n", g.name, err)
			os.Exit(1)
		}
		rep.Benchmarks = append(rep.Benchmarks, results...)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool { return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name })

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "tapbench: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tapbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tapbench: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
	} else {
		os.Stdout.Write(blob)
	}

	if *baseline != "" {
		regressed, err := compare(*baseline, rep, *maxRegress, *maxAllocRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tapbench: compare: %v\n", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(2)
		}
	}
}

// runGroup shells out to go test for one group and aggregates its output.
// With -only, go test runs just the group's benchmarks -only can match
// (onlyPattern), and each result line is filtered by -only as a whole, so
// a sub-benchmark pattern narrows the report too. A group with no match
// runs nothing.
func runGroup(g group, only, pkgs string, extraArgs []string) ([]Result, error) {
	pattern := g.pattern
	var onlyRe *regexp.Regexp
	if only != "" {
		var err error
		if onlyRe, err = regexp.Compile(only); err != nil {
			return nil, fmt.Errorf("bad -only regex: %w", err)
		}
		names, err := listBenchmarks(g.pattern, pkgs)
		if err != nil {
			return nil, err
		}
		if pattern = onlyPattern(names, only); pattern == "" {
			fmt.Fprintf(os.Stderr, "tapbench: -only matches no benchmark of group %s\n", g.name)
			return nil, nil
		}
	}
	args := []string{"test", "-run=^$", "-bench=" + pattern, "-benchmem",
		"-benchtime=" + g.benchtime, "-count=" + strconv.Itoa(g.count)}
	args = append(args, extraArgs...)
	args = append(args, pkgs)
	fmt.Fprintf(os.Stderr, "tapbench: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}

	best := map[string]*Result{}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		r, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if onlyRe != nil && !onlyRe.MatchString(r.Name) {
			continue
		}
		r.Group = g.name
		if prev, seen := best[r.Name]; !seen {
			r.Samples = 1
			best[r.Name] = &r
		} else {
			prev.Samples++
			if r.NsPerOp < prev.NsPerOp {
				r.Samples = prev.Samples
				best[r.Name] = &r
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go test: %w", err)
	}
	out := make([]Result, 0, len(best))
	for _, r := range best {
		out = append(out, *r)
	}
	return out, nil
}

// listBenchmarks returns the top-level benchmarks of pkgs that pattern
// selects, sorted and without duplicates, as `go test -list` names them.
func listBenchmarks(pattern, pkgs string) ([]string, error) {
	cmd := exec.Command("go", "test", "-list="+pattern, pkgs)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -list: %w", err)
	}
	var names []string
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) == 1 && strings.HasPrefix(f[0], "Benchmark") {
			names = append(names, f[0])
		}
	}
	sort.Strings(names)
	return slices.Compact(names), nil
}

// onlyPattern is the -bench pattern that runs just the benchmarks of names
// that only can match: an anchored alternation of the names matched by
// only's part before its first '/', the level go test matches top-level
// names against. It is "" when no name matches.
func onlyPattern(names []string, only string) string {
	top, _, _ := strings.Cut(only, "/")
	re, err := regexp.Compile(top)
	if err != nil {
		// The '/' sits inside a group or class: match the whole pattern.
		re = regexp.MustCompile(only)
	}
	var keep []string
	for _, n := range names {
		if re.MatchString(n) {
			keep = append(keep, regexp.QuoteMeta(n))
		}
	}
	if len(keep) == 0 {
		return ""
	}
	return "^(" + strings.Join(keep, "|") + ")$"
}

// parseBenchLine decodes one `go test -bench` output line, e.g.
//
//	BenchmarkLayeredSeal-1  796  1497471 ns/op  166.97 MB/s  2551552 B/op  117 allocs/op
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		case "MB/s":
			r.MBPerS = v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// compare prints a delta table against a baseline report and returns
// whether any benchmark regressed beyond maxRegress percent on ns/op or
// maxAllocRegress percent on allocs/op (each gate active only when set).
// The alloc gate uses an absolute slack of one allocation: a 0->1 or 1->2
// step on a nearly alloc-free benchmark is always a regression worth
// failing, while percentage math alone would divide by zero or flag noise.
func compare(path string, cur Report, maxRegress, maxAllocRegress float64) (bool, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var base Report
	if err := json.Unmarshal(blob, &base); err != nil {
		return false, err
	}
	baseBy := map[string]Result{}
	for _, r := range base.Benchmarks {
		baseBy[r.Name] = r
	}
	regressed := false
	fmt.Printf("%-40s %14s %14s %8s %10s %10s\n", "benchmark", "base ns/op", "cur ns/op", "Δns", "base allocs", "cur allocs")
	for _, r := range cur.Benchmarks {
		b, ok := baseBy[r.Name]
		if !ok || b.NsPerOp == 0 {
			fmt.Printf("%-40s %14s %14.0f %8s %10s %10.0f\n", r.Name, "-", r.NsPerOp, "new", "-", r.AllocsPerOp)
			continue
		}
		d := (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		fmt.Printf("%-40s %14.0f %14.0f %+7.1f%% %10.0f %10.0f\n", r.Name, b.NsPerOp, r.NsPerOp, d, b.AllocsPerOp, r.AllocsPerOp)
		if maxRegress > 0 && d > maxRegress {
			fmt.Printf("  ^ regression beyond -max-regress=%.1f%%\n", maxRegress)
			regressed = true
		}
		if maxAllocRegress > 0 && r.AllocsPerOp > b.AllocsPerOp+0.5 {
			da := 100.0
			if b.AllocsPerOp > 0 {
				da = (r.AllocsPerOp - b.AllocsPerOp) / b.AllocsPerOp * 100
			}
			if da > maxAllocRegress {
				fmt.Printf("  ^ allocs/op regression %+.1f%% beyond -max-alloc-regress=%.1f%%\n", da, maxAllocRegress)
				regressed = true
			}
		}
	}
	return regressed, nil
}
