package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"tap/internal/trace"
)

// The figure goldens pin the rendered CSV of every paper figure at a small
// fixed-seed scale. Together with the pastry route-trace goldens they prove
// substrate refactors (arena overlay, calendar-queue kernel) are
// behaviour-preserving end to end: same seeds, same tables, byte for byte.
// Every ext experiment that sweeps through runTrials has one too, so a
// change to a trial loop, a stream name or a policy constant in
// internal/core moves a golden, not only a published number in results/.
//
// Every case is also run at GOMAXPROCS 1 and 4 and every cell compared by
// its float bits: a table must not depend on how many workers computed it.
// The %.6f CSV would hide last-ulp drift.
//
// Regenerate (only when results are *supposed* to change, with review):
//
//	go test ./internal/experiments -run TestGoldenFigures -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden figure CSVs from the current implementation")

func TestGoldenFigures(t *testing.T) {
	type tableCase struct {
		name string
		run  func() (*trace.Table, error)
	}
	figures := []tableCase{
		{"fig2", func() (*trace.Table, error) {
			return Fig2(Fig2Params{N: 300, Tunnels: 60, Length: 5, Ks: []int{3},
				Fracs: []float64{0.1, 0.3}, Trials: 2, Seed: 41, FullWalk: true})
		}},
		{"fig3", func() (*trace.Table, error) {
			return Fig3(Fig3Params{N: 300, Tunnels: 80, Length: 5, K: 3,
				Fracs: []float64{0.1, 0.2}, Trials: 2, Seed: 42})
		}},
		{"fig4a", func() (*trace.Table, error) {
			return Fig4a(Fig4aParams{N: 300, Tunnels: 80, Length: 5,
				Ks: []int{1, 3}, Malicious: 0.1, Trials: 2, Seed: 43})
		}},
		{"fig4b", func() (*trace.Table, error) {
			return Fig4b(Fig4bParams{N: 300, Tunnels: 80,
				Lengths: []int{2, 5}, K: 3, Malicious: 0.1, Trials: 2, Seed: 44})
		}},
		{"fig5", func() (*trace.Table, error) {
			return Fig5(Fig5Params{N: 300, Tunnels: 60, Length: 5, K: 3, Malicious: 0.1,
				Units: 4, LeavePerUnit: 15, JoinPerUnit: 15, Trials: 2, Seed: 45})
		}},
		{"fig6", func() (*trace.Table, error) {
			return Fig6(Fig6Params{Sizes: []int{100, 200}, Lengths: []int{3}, K: 3,
				FileBytes: 50_000, Transfers: 3, Sims: 2, Seed: 46})
		}},
		{"ext-reliability", func() (*trace.Table, error) {
			return ExtReliability(ExtReliabilityParams{LossRates: []float64{0.05}, Flows: 10, Trials: 4, Seed: 58})
		}},
		{"ext-selfheal", func() (*trace.Table, error) {
			return ExtSelfHeal(ExtSelfHealParams{ChurnRates: []float64{0.10}, N: 150, Singles: 3, Trials: 4, Seed: 59})
		}},
		{"ext-throughput", func() (*trace.Table, error) {
			return ExtThroughput(ExtThroughputParams{N: 200, Clients: 2, TunnelsPer: 2, Length: 3, Flows: 40,
				FlowBytes: 2048, Dests: 16, Windows: []int{1, 8}, LossRates: []float64{0.01}, ChurnFails: 2, Seed: 60})
		}},
		{"fig6-tails", func() (*trace.Table, error) {
			return Fig6(Fig6Params{Sizes: []int{100}, Lengths: []int{3}, K: 3, FileBytes: 50_000,
				Transfers: 3, Sims: 4, Seed: 46, WithTails: true, UplinkContention: true})
		}},
		{"ext-cover", func() (*trace.Table, error) {
			return ExtCover(ExtCoverParams{N: 150, Rates: []float64{0, 2}, Transfers: 2, FileBytes: 20_000,
				Length: 3, Trials: 4, Seed: 53})
		}},
		{"ext-anon", func() (*trace.Table, error) {
			return ExtAnon(ExtAnonParams{N: 300, Tunnels: 60, Length: 2, K: 3,
				Fracs: []float64{0.05, 0.3}, Trials: 4, Seed: 54})
		}},
		{"ext-session", func() (*trace.Table, error) {
			return ExtSession(ExtSessionParams{N: 300, Length: 3, Exchanges: 6,
				ChurnRates: []float64{0.02}, Sessions: 8, Trials: 4, Seed: 55})
		}},
		{"ext-inflight", func() (*trace.Table, error) {
			return ExtInflight(ExtInflightParams{N: 200, Length: 3, FileBytes: 50_000,
				MeanGaps: []time.Duration{time.Second}, Transfers: 4, Trials: 4, Seed: 56})
		}},
		{"ext-timing", func() (*trace.Table, error) {
			return ExtTiming(ExtTimingParams{N: 200, Length: 3, FlowGaps: []time.Duration{2 * time.Second},
				Fracs: []float64{0.3}, Flows: 10, Trials: 4, Seed: 57})
		}},
		{"ext-scale", func() (*trace.Table, error) {
			tbl, err := ExtScale(ExtScaleParams{Sizes: []int{1000, 3000}, Routes: 200, Seed: 2004})
			if tbl != nil {
				// Only the hop columns: build s and routes/s are wall clock.
				tbl.Series = []string{SeriesMeanHops, SeriesHopConst}
			}
			return tbl, err
		}},
	}
	for _, c := range figures {
		t.Run(c.name, func(t *testing.T) {
			tbl := runAtOneAndFourWorkers(t, c.run)
			var buf bytes.Buffer
			tbl.RenderCSV(&buf)
			path := filepath.Join("testdata", "golden", c.name+".csv")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden on a known-good tree): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				got := path + ".got"
				os.WriteFile(got, buf.Bytes(), 0o644)
				t.Fatalf("figure CSV diverges from %s (wrote %s):\nwant:\n%s\ngot:\n%s",
					path, got, want, buf.Bytes())
			}
		})
	}
}

// runAtOneAndFourWorkers runs the experiment at GOMAXPROCS 1 and 4 and
// fails unless both tables hold the same cells with bit-equal statistics.
func runAtOneAndFourWorkers(t *testing.T, run func() (*trace.Table, error)) *trace.Table {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	xs := a.Xs()
	if len(xs) != len(b.Xs()) {
		t.Fatalf("row count differs: %d vs %d", len(xs), len(b.Xs()))
	}
	for _, x := range xs {
		for _, s := range a.Series {
			ca, cb := a.Get(x, s), b.Get(x, s)
			if ca == nil || cb == nil {
				if ca != cb {
					t.Fatalf("cell (%v, %s) present on one side only", x, s)
				}
				continue
			}
			if ca.N() != cb.N() {
				t.Fatalf("cell (%v, %s): N %d vs %d", x, s, ca.N(), cb.N())
			}
			for _, f := range []struct {
				name string
				a, b float64
			}{
				{"Mean", ca.Mean(), cb.Mean()}, {"StdErr", ca.StdErr(), cb.StdErr()},
				{"Min", ca.Min(), cb.Min()}, {"Max", ca.Max(), cb.Max()},
			} {
				if math.Float64bits(f.a) != math.Float64bits(f.b) {
					t.Errorf("cell (%v, %s): %s differs between GOMAXPROCS 1 and 4: %x vs %x",
						x, s, f.name, math.Float64bits(f.a), math.Float64bits(f.b))
				}
			}
		}
	}
	return b
}
