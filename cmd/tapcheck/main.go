// Command tapcheck runs the deterministic simulation checker: it
// generates seeded churn/fault/traffic scenarios, replays them on the
// discrete-event simulator with every runtime invariant armed, and — on a
// violation — shrinks the event schedule to a minimal counterexample and
// dumps a replayable trace.
//
// Usage:
//
//	tapcheck -seeds 200                      sweep seeds 1..200
//	tapcheck -seeds 200 -profile all         sweep every profile
//	tapcheck -seed 1337 -profile full        replay one seed
//	tapcheck -seeds 0 -budget 10m            sweep until the wall clock runs out
//
// Every run is a pure function of (seed, profile): a violation reported
// here reproduces byte-for-byte with `tapcheck -seed S -profile P`, and
// the dumped trace replays the shrunk schedule the same way. Exit status
// is non-zero iff any invariant fired.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tap/internal/dst"
)

type job struct {
	seed    uint64
	profile dst.Profile
}

type finding struct {
	job
	violation *dst.Violation
	err       error
	trace     []byte
	shrunk    int // events after shrinking
	original  int // events before shrinking
}

func main() {
	var (
		seeds    = flag.Int("seeds", 50, "number of seeds to sweep per profile (0: unbounded, needs -budget)")
		start    = flag.Uint64("start", 1, "first seed of the sweep")
		one      = flag.Uint64("seed", 0, "replay a single seed and exit (overrides -seeds)")
		profile  = flag.String("profile", "full", "scenario profile: full|membership|storage|pool|stream|all")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel scenario runners")
		budget   = flag.Duration("budget", 0, "wall-clock budget; stop dispatching new seeds after this (0: none)")
		shrinkN  = flag.Int("shrink-budget", dst.DefaultShrinkRuns, "max replays the shrinker may spend per violation")
		traceDir = flag.String("trace-dir", "", "write one <profile>-seed<N>.json trace per violation into this directory")
		verbose  = flag.Bool("v", false, "log every seed, not just violations")
		mutate   = flag.String("mutate", "", "plant a known bug to exercise the violation path: "+plantNames())
	)
	flag.Parse()

	mut, err := parseMutation(*mutate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tapcheck: %v\n", err)
		os.Exit(2)
	}

	profiles, err := parseProfiles(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tapcheck: %v\n", err)
		os.Exit(2)
	}
	if *seeds <= 0 && *budget <= 0 && *one == 0 {
		fmt.Fprintln(os.Stderr, "tapcheck: -seeds 0 needs a -budget to terminate")
		os.Exit(2)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "tapcheck: -trace-dir: %v\n", err)
			os.Exit(2)
		}
	}
	if *workers < 1 {
		*workers = 1
	}

	jobs := make(chan job)
	results := make(chan finding)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results <- check(j, mut, *shrinkN)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	deadline := time.Time{}
	if *budget > 0 {
		deadline = time.Now().Add(*budget)
	}
	go func() {
		defer close(jobs)
		if *one != 0 {
			for _, p := range profiles {
				jobs <- job{seed: *one, profile: p}
			}
			return
		}
		for i := 0; *seeds <= 0 || i < *seeds; i++ {
			if !deadline.IsZero() && time.Now().After(deadline) {
				return
			}
			for _, p := range profiles {
				jobs <- job{seed: *start + uint64(i), profile: p}
			}
		}
	}()

	began := time.Now()
	var ran int
	var bad []finding
	for f := range results {
		ran++
		switch {
		case f.err != nil:
			bad = append(bad, f)
			fmt.Printf("ERROR %-10s seed %-6d %v\n", f.profile, f.seed, f.err)
		case f.violation != nil:
			bad = append(bad, f)
			fmt.Printf("FAIL  %-10s seed %-6d %s (shrunk %d -> %d events)\n",
				f.profile, f.seed, f.violation, f.original, f.shrunk)
		case *verbose:
			fmt.Printf("ok    %-10s seed %d\n", f.profile, f.seed)
		}
	}

	sort.Slice(bad, func(i, j int) bool {
		if bad[i].profile != bad[j].profile {
			return bad[i].profile < bad[j].profile
		}
		return bad[i].seed < bad[j].seed
	})
	for _, f := range bad {
		if f.trace == nil || *traceDir == "" {
			continue
		}
		name := fmt.Sprintf("%s-seed%d.json", f.profile, f.seed)
		path := filepath.Join(*traceDir, name)
		if err := os.WriteFile(path, f.trace, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tapcheck: writing %s: %v\n", path, err)
		} else {
			fmt.Printf("trace %s\n", path)
		}
	}

	fmt.Printf("tapcheck: %d scenarios in %v, %d violations\n",
		ran, time.Since(began).Round(time.Millisecond), len(bad))
	if len(bad) > 0 {
		fmt.Println("reproduce any line with: tapcheck -seed <N> -profile <P>")
		os.Exit(1)
	}
}

// check runs one seeded scenario and, on a violation, shrinks it and
// renders the trace artifact.
func check(j job, mut dst.Mutations, shrinkBudget int) finding {
	f := finding{job: j}
	sc := dst.Gen(j.seed, j.profile)
	f.original = len(sc.Events)
	res := dst.Run(sc, mut)
	if res.Err != nil {
		f.err = res.Err
		return f
	}
	if res.Violation == nil {
		return f
	}
	sr := dst.Shrink(sc, mut, shrinkBudget)
	f.violation = sr.Violation
	f.shrunk = len(sr.Scenario.Events)
	if blob, err := dst.NewTrace(sr).JSON(); err == nil {
		f.trace = blob
	}
	return f
}

// plantNames lists every -mutate value, from dst's one plant table.
func plantNames() string {
	names := make([]string, len(dst.Plants))
	for i, p := range dst.Plants {
		names[i] = p.Name
	}
	return strings.Join(names, "|")
}

func parseMutation(s string) (dst.Mutations, error) {
	if s == "" {
		return dst.Mutations{}, nil
	}
	for _, p := range dst.Plants {
		if p.Name == s {
			return p.Mutations, nil
		}
	}
	return dst.Mutations{}, fmt.Errorf("unknown mutation %q (%s)", s, plantNames())
}

func parseProfiles(s string) ([]dst.Profile, error) {
	switch dst.Profile(s) {
	case dst.ProfileFull, dst.ProfileMembership, dst.ProfileStorage, dst.ProfilePool,
		dst.ProfileStream:
		return []dst.Profile{dst.Profile(s)}, nil
	}
	if s == "all" {
		return []dst.Profile{dst.ProfileFull, dst.ProfileMembership,
			dst.ProfileStorage, dst.ProfilePool, dst.ProfileStream}, nil
	}
	return nil, fmt.Errorf("unknown profile %q (full|membership|storage|pool|stream|all)", s)
}
