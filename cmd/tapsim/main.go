// Command tapsim regenerates the figures of "TAP: A Novel Tunneling
// Approach for Anonymity in Structured P2P Systems" (Zhu & Hu, ICPP
// 2004), and the extension tables of EXPERIMENTS.md.
//
// Usage:
//
//	tapsim -experiment fig2 [flags]      one figure or ext-* table
//	tapsim -experiment all  [flags]      every figure
//	tapsim -experiment ext  [flags]      the ext-* sweeps, at their defaults
//
// Every experiment is one row of a table (its name, its group and how it
// builds its parameters from the flags); the dispatch, the groups and the
// list of names -experiment accepts all come from it. The ext group runs
// each member with only -trials and -seed set, so every other count is
// the experiment's own default.
//
// By default tapsim runs at a laptop-friendly scale (1/10 of the paper's
// network). Pass -paper for the full 10,000-node, 5,000-tunnel setting —
// expect minutes per figure. All runs are deterministic in -seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"tap/internal/experiments"
	"tap/internal/trace"
)

// options are the flag values an experiment builds its parameters from.
type options struct {
	n, tunnels, length, k, trials int
	seed                          uint64
	paper, walk, tails, contend   bool
	sims, xfers, units            int
	sizes, windows                []int
	routes                        int
	budget                        time.Duration
	flows, clients, fbytes        int
}

// experiment is one value -experiment accepts. group names the group that
// also runs it ("all", "ext" or none).
type experiment struct {
	name, group string
	run         func(o options) (*trace.Table, error)
}

// table is every experiment in the order a group runs them. Extension
// experiments (beyond the paper; see EXPERIMENTS.md) are not part of
// "all": they answer different questions.
var table = []experiment{
	{"fig2", "all", func(o options) (*trace.Table, error) {
		return experiments.Fig2(experiments.Fig2Params{
			N: o.n, Tunnels: o.tunnels, Length: o.length,
			Trials: o.trials, Seed: o.seed, FullWalk: o.walk,
		})
	}},
	{"fig3", "all", func(o options) (*trace.Table, error) {
		return experiments.Fig3(experiments.Fig3Params{
			N: o.n, Tunnels: o.tunnels, Length: o.length, K: o.k,
			Trials: o.trials, Seed: o.seed,
		})
	}},
	{"fig4a", "all", func(o options) (*trace.Table, error) {
		return experiments.Fig4a(experiments.Fig4aParams{
			N: o.n, Tunnels: o.tunnels, Length: o.length,
			Trials: o.trials, Seed: o.seed,
		})
	}},
	{"fig4b", "all", func(o options) (*trace.Table, error) {
		return experiments.Fig4b(experiments.Fig4bParams{
			N: o.n, Tunnels: o.tunnels, K: o.k,
			Trials: o.trials, Seed: o.seed,
		})
	}},
	{"fig5", "all", func(o options) (*trace.Table, error) {
		return experiments.Fig5(experiments.Fig5Params{
			N: o.n, Tunnels: o.tunnels, Length: o.length, K: o.k,
			Units: o.units, Trials: o.trials, Seed: o.seed,
		})
	}},
	{"fig6", "all", func(o options) (*trace.Table, error) {
		p := experiments.Fig6Params{
			K: o.k, Sims: o.sims, Transfers: o.xfers, Seed: o.seed,
			WithTails: o.tails, UplinkContention: o.contend,
		}
		if !o.paper {
			// Scale the size sweep with -n as its ceiling.
			p.Sizes = sizesUpTo(o.n)
		}
		return experiments.Fig6(p)
	}},
	{"ext-cover", "ext", func(o options) (*trace.Table, error) {
		return experiments.ExtCover(experiments.ExtCoverParams{
			N: o.n, Length: o.length, Trials: o.trials, Seed: o.seed,
		})
	}},
	{"ext-anon", "ext", func(o options) (*trace.Table, error) {
		return experiments.ExtAnon(experiments.ExtAnonParams{
			N: o.n, Tunnels: o.tunnels, Length: o.length, K: o.k,
			Trials: o.trials, Seed: o.seed,
		})
	}},
	{"ext-session", "ext", func(o options) (*trace.Table, error) {
		return experiments.ExtSession(experiments.ExtSessionParams{
			N: o.n, Length: o.length, Trials: o.trials, Seed: o.seed,
		})
	}},
	{"ext-inflight", "ext", func(o options) (*trace.Table, error) {
		return experiments.ExtInflight(experiments.ExtInflightParams{
			N: o.n, Length: o.length, Trials: o.trials, Seed: o.seed,
		})
	}},
	{"ext-timing", "ext", func(o options) (*trace.Table, error) {
		return experiments.ExtTiming(experiments.ExtTimingParams{
			N: o.n, Length: o.length, Trials: o.trials, Seed: o.seed,
		})
	}},
	{"ext-reliability", "ext", func(o options) (*trace.Table, error) {
		return experiments.ExtReliability(experiments.ExtReliabilityParams{
			N: o.n, Trials: o.trials, Seed: o.seed,
		})
	}},
	{"ext-selfheal", "ext", func(o options) (*trace.Table, error) {
		// k=2, l=3 are the experiment's constants: thin replication
		// is the point — at the usual k=3, batch churn
		// almost never kills an anchor and both modes tie at ~1.0.
		return experiments.ExtSelfHeal(experiments.ExtSelfHealParams{
			N: o.n, Trials: o.trials, Seed: o.seed,
		})
	}},
	{"ext-scale", "", func(o options) (*trace.Table, error) {
		return experiments.ExtScale(experiments.ExtScaleParams{
			Sizes: o.sizes, Routes: o.routes, Seed: o.seed, Budget: o.budget,
		})
	}},
	{"ext-throughput", "", func(o options) (*trace.Table, error) {
		return experiments.ExtThroughput(experiments.ExtThroughputParams{
			N: o.n, Length: o.length, Flows: o.flows, Windows: o.windows,
			Clients: o.clients, FlowBytes: o.fbytes, Seed: o.seed,
		})
	}},
}

// names is every value -experiment accepts, groups first; the flag's
// usage and the unknown-experiment error both print it.
func names() string {
	var groups, rows []string
	for _, e := range table {
		if e.group != "" && !slices.Contains(groups, e.group) {
			groups = append(groups, e.group)
		}
		rows = append(rows, e.name)
	}
	return strings.Join(append(groups, rows...), "|")
}

// selected is one experiment to run and the options it runs with.
type selected struct {
	experiment
	opts options
}

// selectRuns returns what -experiment exp names, case-insensitively: one
// experiment, or every member of a group in table order. The ext group
// runs each member with only -trials and -seed set.
func selectRuns(exp string, o options) []selected {
	var out []selected
	for _, e := range table {
		switch {
		case strings.EqualFold(exp, e.name):
			out = append(out, selected{e, o})
		case e.group == "ext" && strings.EqualFold(exp, e.group):
			out = append(out, selected{e, options{trials: o.trials, seed: o.seed}})
		case e.group != "" && strings.EqualFold(exp, e.group):
			out = append(out, selected{e, o})
		}
	}
	return out
}

// intList parses the comma-separated positive ints given to -name; a bad
// element ends tapsim with exit status 2.
func intList(name, what, s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "tapsim: -%s: bad %s %q\n", name, what, f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	var o options
	var sizes, windows string
	exp := flag.String("experiment", "all", names()+" (all: the paper's figures; ext: the ext-* sweeps that take no flags of their own)")
	flag.IntVar(&o.n, "n", 1000, "network size (nodes)")
	flag.IntVar(&o.tunnels, "tunnels", 500, "number of tunnels")
	flag.IntVar(&o.length, "length", 5, "tunnel length l")
	flag.IntVar(&o.k, "k", 3, "replication factor")
	flag.IntVar(&o.trials, "trials", 3, "Monte-Carlo trials per point")
	flag.Uint64Var(&o.seed, "seed", 2004, "root random seed")
	flag.BoolVar(&o.paper, "paper", false, "use the paper's full scale (N=10000, 5000 tunnels)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.BoolVar(&o.walk, "fullwalk", false, "fig2: verify tunnels by end-to-end delivery, not just anchor availability")
	flag.IntVar(&o.sims, "sims", 3, "fig6: simulations per network size")
	flag.IntVar(&o.xfers, "transfers", 20, "fig6: transfers per simulation")
	flag.IntVar(&o.units, "units", 20, "fig5: churn time units")
	flag.BoolVar(&o.tails, "tails", false, "fig6: also report p95 per mode")
	flag.BoolVar(&o.contend, "contention", false, "fig6: per-node uplink queuing in the link model")
	flag.StringVar(&sizes, "sizes", "", "ext-scale: comma-separated network sizes (default 1000,10000,100000,1000000)")
	flag.IntVar(&o.routes, "routes", 0, "ext-scale: measured routes per size (default 10000)")
	flag.DurationVar(&o.budget, "budget", 0, "ext-scale: fail if the sweep exceeds this wall-clock budget (0 = none)")
	flag.IntVar(&o.flows, "flows", 0, "ext-throughput: concurrent stream flows per combo (default 2000)")
	flag.StringVar(&windows, "windows", "", "ext-throughput: comma-separated send-window sizes (default 1,16)")
	flag.IntVar(&o.clients, "clients", 0, "ext-throughput: stream sources (default 16)")
	flag.IntVar(&o.fbytes, "flowbytes", 0, "ext-throughput: payload bytes per stream (default 2048)")
	outDir := flag.String("out", "", "also write each table as CSV into this directory")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	// The lists are checked whatever runs: a malformed one is a mistake
	// even where the experiment would not read it.
	o.sizes = intList("sizes", "size", sizes)
	o.windows = intList("windows", "window", windows)
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "tapsim: -out: %v\n", err)
			os.Exit(1)
		}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tapsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tapsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// The heap profile is written after the experiments finish (or on
		// any exit path that runs the defers).
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tapsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tapsim: -memprofile: %v\n", err)
			}
		}()
	}

	if o.paper {
		o.n = 10_000
		o.tunnels = 5_000
	}

	runs := selectRuns(*exp, o)
	if len(runs) == 0 {
		fmt.Fprintf(os.Stderr, "tapsim: unknown experiment %q (want %s)\n", *exp, names())
		os.Exit(2)
	}
	for _, r := range runs {
		start := time.Now()
		tbl, err := r.run(r.opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tapsim: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		if *csv {
			tbl.RenderCSV(os.Stdout)
		} else {
			tbl.Render(os.Stdout)
			fmt.Printf("(%s completed in %v)\n", r.name, time.Since(start).Round(time.Millisecond))
		}
		fmt.Println()
		if *outDir != "" {
			f, err := os.Create(filepath.Join(*outDir, r.name+".csv"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "tapsim: -out: %v\n", err)
				os.Exit(1)
			}
			tbl.RenderCSV(f)
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tapsim: -out: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// sizesUpTo picks a log-spaced size sweep capped at max.
func sizesUpTo(max int) []int {
	all := []int{100, 300, 1000, 3000, 10000}
	var out []int
	for _, s := range all {
		if s <= max {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = []int{max}
	}
	return out
}
