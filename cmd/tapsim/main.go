// Command tapsim regenerates the figures of "TAP: A Novel Tunneling
// Approach for Anonymity in Structured P2P Systems" (Zhu & Hu, ICPP
// 2004).
//
// Usage:
//
//	tapsim -experiment fig2 [flags]      one figure
//	tapsim -experiment all  [flags]      every figure
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
	"strings"
	"time"

	"tap/internal/experiments"
	"tap/internal/trace"
)

// experimentNames is every value -experiment accepts; the flag's usage
// and the unknown-experiment error both print it.
var experimentNames = strings.Join([]string{
	"fig2", "fig3", "fig4a", "fig4b", "fig5", "fig6", "all",
	"ext", "ext-secroute", "ext-detect", "ext-cover", "ext-anon", "ext-session", "ext-inflight",
	"ext-timing", "ext-reliability", "ext-selfheal", "ext-scale", "ext-throughput",
}, "|")

func main() {
	var (
		exp     = flag.String("experiment", "all", experimentNames+" (all: the paper's figures; ext: the ext-* sweeps that take no flags of their own)")
		n       = flag.Int("n", 1000, "network size (nodes)")
		tunnels = flag.Int("tunnels", 500, "number of tunnels")
		length  = flag.Int("length", 5, "tunnel length l")
		k       = flag.Int("k", 3, "replication factor")
		trials  = flag.Int("trials", 3, "Monte-Carlo trials per point")
		seed    = flag.Uint64("seed", 2004, "root random seed")
		paper   = flag.Bool("paper", false, "use the paper's full scale (N=10000, 5000 tunnels)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		walk    = flag.Bool("fullwalk", false, "fig2: verify tunnels by end-to-end delivery, not just anchor availability")
		sims    = flag.Int("sims", 3, "fig6: simulations per network size")
		xfers   = flag.Int("transfers", 20, "fig6: transfers per simulation")
		units   = flag.Int("units", 20, "fig5: churn time units")
		tails   = flag.Bool("tails", false, "fig6: also report p95 per mode")
		contend = flag.Bool("contention", false, "fig6: per-node uplink queuing in the link model")
		sizes   = flag.String("sizes", "", "ext-scale: comma-separated network sizes (default 1000,10000,100000,1000000)")
		routes  = flag.Int("routes", 0, "ext-scale: measured routes per size (default 10000)")
		budget  = flag.Duration("budget", 0, "ext-scale: fail if the sweep exceeds this wall-clock budget (0 = none)")
		flows   = flag.Int("flows", 0, "ext-throughput: concurrent stream flows per combo (default 2000)")
		windows = flag.String("windows", "", "ext-throughput: comma-separated send-window sizes (default 1,16)")
		clients = flag.Int("clients", 0, "ext-throughput: stream sources (default 16)")
		fbytes  = flag.Int("flowbytes", 0, "ext-throughput: payload bytes per stream (default 2048)")
		outDir  = flag.String("out", "", "also write each table as CSV into this directory")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
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

	if *paper {
		*n = 10_000
		*tunnels = 5_000
	}

	run := func(name string, fn func() (*trace.Table, error)) {
		start := time.Now()
		tbl, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tapsim: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *csv {
			tbl.RenderCSV(os.Stdout)
		} else {
			tbl.Render(os.Stdout)
			fmt.Printf("(%s completed in %v)\n", name, time.Since(start).Round(time.Millisecond))
		}
		fmt.Println()
		if *outDir != "" {
			f, err := os.Create(filepath.Join(*outDir, name+".csv"))
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

	want := func(name string) bool {
		return *exp == "all" || strings.EqualFold(*exp, name)
	}
	matched := false

	if want("fig2") {
		matched = true
		run("fig2", func() (*trace.Table, error) {
			return experiments.Fig2(experiments.Fig2Params{
				N: *n, Tunnels: *tunnels, Length: *length,
				Trials: *trials, Seed: *seed, FullWalk: *walk,
			})
		})
	}
	if want("fig3") {
		matched = true
		run("fig3", func() (*trace.Table, error) {
			return experiments.Fig3(experiments.Fig3Params{
				N: *n, Tunnels: *tunnels, Length: *length, K: *k,
				Trials: *trials, Seed: *seed,
			})
		})
	}
	if want("fig4a") {
		matched = true
		run("fig4a", func() (*trace.Table, error) {
			return experiments.Fig4a(experiments.Fig4aParams{
				N: *n, Tunnels: *tunnels, Length: *length,
				Trials: *trials, Seed: *seed,
			})
		})
	}
	if want("fig4b") {
		matched = true
		run("fig4b", func() (*trace.Table, error) {
			return experiments.Fig4b(experiments.Fig4bParams{
				N: *n, Tunnels: *tunnels, K: *k,
				Trials: *trials, Seed: *seed,
			})
		})
	}
	if want("fig5") {
		matched = true
		run("fig5", func() (*trace.Table, error) {
			return experiments.Fig5(experiments.Fig5Params{
				N: *n, Tunnels: *tunnels, Length: *length, K: *k,
				Units: *units, Trials: *trials, Seed: *seed,
			})
		})
	}
	if want("fig6") {
		matched = true
		run("fig6", func() (*trace.Table, error) {
			p := experiments.Fig6Params{
				K: *k, Sims: *sims, Transfers: *xfers, Seed: *seed,
				WithTails: *tails, UplinkContention: *contend,
			}
			if !*paper {
				// Scale the size sweep with -n as its ceiling.
				p.Sizes = sizesUpTo(*n)
			}
			return experiments.Fig6(p)
		})
	}
	// Extension experiments (beyond the paper; see EXPERIMENTS.md). Not
	// part of "all": they answer different questions.
	if strings.EqualFold(*exp, "ext-secroute") {
		matched = true
		run("ext-secroute", func() (*trace.Table, error) {
			return experiments.ExtSecRoute(experiments.ExtSecRouteParams{
				N: *n, Trials: *trials, Seed: *seed,
			})
		})
	}
	if strings.EqualFold(*exp, "ext-detect") {
		matched = true
		run("ext-detect", func() (*trace.Table, error) {
			return experiments.ExtDetect(experiments.ExtDetectParams{
				N: *n, Length: *length, Trials: *trials, Seed: *seed,
			})
		})
	}
	if strings.EqualFold(*exp, "ext-cover") {
		matched = true
		run("ext-cover", func() (*trace.Table, error) {
			return experiments.ExtCover(experiments.ExtCoverParams{
				N: *n, Length: *length, Trials: *trials, Seed: *seed,
			})
		})
	}
	if strings.EqualFold(*exp, "ext-anon") {
		matched = true
		run("ext-anon", func() (*trace.Table, error) {
			return experiments.ExtAnon(experiments.ExtAnonParams{
				N: *n, Tunnels: *tunnels, Length: *length, K: *k,
				Trials: *trials, Seed: *seed,
			})
		})
	}
	if strings.EqualFold(*exp, "ext-session") {
		matched = true
		run("ext-session", func() (*trace.Table, error) {
			return experiments.ExtSession(experiments.ExtSessionParams{
				N: *n, Length: *length, Trials: *trials, Seed: *seed,
			})
		})
	}
	if strings.EqualFold(*exp, "ext-inflight") {
		matched = true
		run("ext-inflight", func() (*trace.Table, error) {
			return experiments.ExtInflight(experiments.ExtInflightParams{
				N: *n, Length: *length, Trials: *trials, Seed: *seed,
			})
		})
	}
	if strings.EqualFold(*exp, "ext-timing") {
		matched = true
		run("ext-timing", func() (*trace.Table, error) {
			return experiments.ExtTiming(experiments.ExtTimingParams{
				N: *n, Length: *length, Trials: *trials, Seed: *seed,
			})
		})
	}
	if strings.EqualFold(*exp, "ext-reliability") {
		matched = true
		run("ext-reliability", func() (*trace.Table, error) {
			return experiments.ExtReliability(experiments.ExtReliabilityParams{
				N: *n, Trials: *trials, Seed: *seed,
			})
		})
	}
	if strings.EqualFold(*exp, "ext-selfheal") {
		matched = true
		run("ext-selfheal", func() (*trace.Table, error) {
			// k=2, l=3 are the experiment's constants: thin replication
			// is the point — at the usual k=3, batch churn
			// almost never kills an anchor and both modes tie at ~1.0.
			return experiments.ExtSelfHeal(experiments.ExtSelfHealParams{
				N: *n, Trials: *trials, Seed: *seed,
			})
		})
	}
	if strings.EqualFold(*exp, "ext-scale") {
		matched = true
		var sz []int
		if *sizes != "" {
			for _, s := range strings.Split(*sizes, ",") {
				var v int
				if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &v); err != nil || v < 1 {
					fmt.Fprintf(os.Stderr, "tapsim: -sizes: bad size %q\n", s)
					os.Exit(2)
				}
				sz = append(sz, v)
			}
		}
		run("ext-scale", func() (*trace.Table, error) {
			return experiments.ExtScale(experiments.ExtScaleParams{
				Sizes: sz, Routes: *routes, Seed: *seed, Budget: *budget,
			})
		})
	}
	if strings.EqualFold(*exp, "ext-throughput") {
		matched = true
		var ws []int
		if *windows != "" {
			for _, s := range strings.Split(*windows, ",") {
				var v int
				if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &v); err != nil || v < 1 {
					fmt.Fprintf(os.Stderr, "tapsim: -windows: bad window %q\n", s)
					os.Exit(2)
				}
				ws = append(ws, v)
			}
		}
		run("ext-throughput", func() (*trace.Table, error) {
			return experiments.ExtThroughput(experiments.ExtThroughputParams{
				N: *n, Length: *length, Flows: *flows, Windows: ws,
				Clients: *clients, FlowBytes: *fbytes, Seed: *seed,
			})
		})
	}
	if strings.EqualFold(*exp, "ext") {
		matched = true
		run("ext-secroute", func() (*trace.Table, error) {
			return experiments.ExtSecRoute(experiments.ExtSecRouteParams{Trials: *trials, Seed: *seed})
		})
		run("ext-detect", func() (*trace.Table, error) {
			return experiments.ExtDetect(experiments.ExtDetectParams{Trials: *trials, Seed: *seed})
		})
		run("ext-cover", func() (*trace.Table, error) {
			return experiments.ExtCover(experiments.ExtCoverParams{Trials: *trials, Seed: *seed})
		})
		run("ext-anon", func() (*trace.Table, error) {
			return experiments.ExtAnon(experiments.ExtAnonParams{Trials: *trials, Seed: *seed})
		})
		run("ext-session", func() (*trace.Table, error) {
			return experiments.ExtSession(experiments.ExtSessionParams{Trials: *trials, Seed: *seed})
		})
		run("ext-inflight", func() (*trace.Table, error) {
			return experiments.ExtInflight(experiments.ExtInflightParams{Trials: *trials, Seed: *seed})
		})
		run("ext-timing", func() (*trace.Table, error) {
			return experiments.ExtTiming(experiments.ExtTimingParams{Trials: *trials, Seed: *seed})
		})
		run("ext-reliability", func() (*trace.Table, error) {
			return experiments.ExtReliability(experiments.ExtReliabilityParams{Trials: *trials, Seed: *seed})
		})
		run("ext-selfheal", func() (*trace.Table, error) {
			return experiments.ExtSelfHeal(experiments.ExtSelfHealParams{Trials: *trials, Seed: *seed})
		})
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "tapsim: unknown experiment %q (want %s)\n", *exp, experimentNames)
		os.Exit(2)
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
