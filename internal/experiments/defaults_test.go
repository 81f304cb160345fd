package experiments

import (
	"cmp"
	"slices"
	"testing"
	"time"
)

// The zero value of every figure's parameter struct must select the
// paper's published settings — these tests are the executable record of
// that mapping.
func TestFigureDefaultsMatchPaper(t *testing.T) {
	f2 := Fig2Params{}.withDefaults()
	if f2.N != 10_000 || f2.Tunnels != 5_000 || f2.Length != 5 {
		t.Fatalf("fig2 defaults %+v", f2)
	}
	if len(f2.Ks) != 2 || f2.Ks[0] != 3 || f2.Ks[1] != 5 {
		t.Fatalf("fig2 must compare k=3 and k=5: %v", f2.Ks)
	}

	f3 := Fig3Params{}.withDefaults()
	if f3.N != 10_000 || f3.Tunnels != 5_000 || f3.Length != 5 || f3.K != 3 {
		t.Fatalf("fig3 defaults %+v", f3)
	}

	f4a := Fig4aParams{}.withDefaults()
	if f4a.Malicious != 0.1 || f4a.Length != 5 {
		t.Fatalf("fig4a defaults %+v", f4a)
	}
	f4b := Fig4bParams{}.withDefaults()
	if f4b.K != 3 || f4b.Malicious != 0.1 {
		t.Fatalf("fig4b defaults %+v", f4b)
	}

	f5 := Fig5Params{}.withDefaults()
	if f5.LeavePerUnit != 100 || f5.JoinPerUnit != 100 || f5.K != 3 || f5.Malicious != 0.1 {
		t.Fatalf("fig5 defaults %+v (paper: 100 leaves + 100 joins per unit, k=3, p=0.1)", f5)
	}

	f6 := Fig6Params{}.withDefaults()
	if f6.FileBytes != 250_000 {
		t.Fatalf("fig6 file size %d, paper transfers 2 Mb = 250,000 bytes", f6.FileBytes)
	}
	if len(f6.Lengths) != 2 || f6.Lengths[0] != 3 || f6.Lengths[1] != 5 {
		t.Fatalf("fig6 lengths %v, paper plots l=3 and l=5", f6.Lengths)
	}
	if f6.Sizes[len(f6.Sizes)-1] != 10_000 {
		t.Fatalf("fig6 sizes %v must reach 10,000 nodes", f6.Sizes)
	}
}

func TestExtensionDefaultsSane(t *testing.T) {
	if p := (ExtCoverParams{}).withDefaults(); p.Rates[0] != 0 {
		t.Fatalf("ext-cover must include the no-cover baseline first: %v", p.Rates)
	}
	if p := (ExtAnonParams{}).withDefaults(); p.Length != 5 || p.K != 3 {
		t.Fatalf("ext-anon defaults %+v", p)
	}
	if p := (ExtSessionParams{}).withDefaults(); p.Exchanges != 20 {
		t.Fatalf("ext-session defaults %+v", p)
	}
	if p := (ExtInflightParams{}).withDefaults(); p.MeanGaps[0] != 0 || p.FileBytes != 250_000 {
		t.Fatalf("ext-inflight defaults %+v", p)
	}
}

// TestExtScaleDefaultsReachAMillion: ext-scale's default sweep is what
// backs the 10⁶-node routing claim, so it must end at a million nodes.
func TestExtScaleDefaultsReachAMillion(t *testing.T) {
	p := ExtScaleParams{}.withDefaults()
	if p.Sizes[len(p.Sizes)-1] != 1_000_000 || p.Routes != 10_000 || p.Seed != 2004 {
		t.Fatalf("ext-scale defaults %+v, want a sweep ending at 10⁶ with 10,000 routes and seed 2004", p)
	}
	if !slices.IsSorted(p.Sizes) {
		t.Fatalf("ext-scale sizes %v not ascending", p.Sizes)
	}
	if q := (ExtScaleParams{Sizes: []int{500}, Routes: 7}).withDefaults(); !slices.Equal(q.Sizes, []int{500}) || q.Routes != 7 {
		t.Fatalf("ext-scale defaults overrode set fields: %+v", q)
	}
}

// TestExtThroughputDefaultsReadAgainstStopAndWait: ext-throughput's first
// default window is 1, the stop-and-wait baseline every other window is
// read against; the loss sweep starts clean, and churn scales with N
// unless it is set.
func TestExtThroughputDefaultsReadAgainstStopAndWait(t *testing.T) {
	p := ExtThroughputParams{}.withDefaults()
	if !slices.Equal(p.Windows, []int{1, 16}) || p.LossRates[0] != 0 {
		t.Fatalf("ext-throughput windows %v, loss rates %v; want [1 16] and a lossless first sweep", p.Windows, p.LossRates)
	}
	if p.N != 1000 || p.Flows != 2000 || p.ChurnFails != p.N/50 {
		t.Fatalf("ext-throughput defaults %+v", p)
	}
	if q := (ExtThroughputParams{N: 5000}).withDefaults(); q.ChurnFails != 100 {
		t.Fatalf("ChurnFails %d at N = 5000, want N/50 = 100", q.ChurnFails)
	}
	if q := (ExtThroughputParams{N: 5000, ChurnFails: 3}).withDefaults(); q.ChurnFails != 3 {
		t.Fatalf("a set ChurnFails was overridden: %d", q.ChurnFails)
	}
}

// TestExtTimingDefaultsSweepDensity: ext-timing's default gaps shrink, so
// its x axis runs from sparse to dense traffic, at the two malicious
// fractions it reports.
func TestExtTimingDefaultsSweepDensity(t *testing.T) {
	p := ExtTimingParams{}.withDefaults()
	if len(p.FlowGaps) < 2 || !slices.IsSortedFunc(p.FlowGaps, func(a, b time.Duration) int { return cmp.Compare(b, a) }) {
		t.Fatalf("ext-timing gaps %v, want a sweep from sparse to dense", p.FlowGaps)
	}
	if !slices.Equal(p.Fracs, []float64{0.1, 0.3}) || p.Length != 5 || p.N != 1000 {
		t.Fatalf("ext-timing defaults %+v", p)
	}
}
