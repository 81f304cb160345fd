package experiments

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/trace"
)

// Small-scale parameter sets keep the full pipelines under a second each
// while still exercising every code path the full-size runs use.

func TestFig2ShapeAndDeterminism(t *testing.T) {
	p := Fig2Params{
		N: 400, Tunnels: 80, Length: 5,
		Ks:     []int{3, 5},
		Fracs:  []float64{0.1, 0.3, 0.5},
		Trials: 2, Seed: 42,
	}
	tbl, err := Fig2(p)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline failure grows steeply with p and dominates TAP.
	for _, f := range p.Fracs {
		cur := tbl.Mean(f, SeriesCurrent)
		tap3 := tbl.Mean(f, seriesTAP(3))
		tap5 := tbl.Mean(f, seriesTAP(5))
		if math.IsNaN(cur) || math.IsNaN(tap3) || math.IsNaN(tap5) {
			t.Fatalf("missing cell at p=%.2f", f)
		}
		if cur < tap3 {
			t.Fatalf("p=%.2f: baseline %.3f below TAP k=3 %.3f", f, cur, tap3)
		}
		if tap5 > tap3+0.02 {
			t.Fatalf("p=%.2f: k=5 (%.3f) should not fail more than k=3 (%.3f)", f, tap5, tap3)
		}
	}
	// Baseline follows 1-(1-p)^l closely.
	wantCur := 1 - math.Pow(1-0.5, 5)
	if got := tbl.Mean(0.5, SeriesCurrent); math.Abs(got-wantCur) > 0.08 {
		t.Fatalf("baseline at p=0.5: %.3f, theory %.3f", got, wantCur)
	}
	// Determinism: identical params, identical means.
	tbl2, err := Fig2(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Fracs {
		if tbl.Mean(f, seriesTAP(3)) != tbl2.Mean(f, seriesTAP(3)) {
			t.Fatalf("Fig2 not deterministic at p=%.2f", f)
		}
	}
}

func TestFig2TheoryAgreement(t *testing.T) {
	// TAP's failure rate should track 1-(1-p^k)^l within Monte-Carlo
	// noise. Correlated replica sets (adjacent hops sharing holders)
	// widen the tolerance a little.
	p := Fig2Params{
		N: 500, Tunnels: 150, Length: 5,
		Ks:     []int{2},
		Fracs:  []float64{0.4},
		Trials: 3, Seed: 7,
	}
	tbl, err := Fig2(p)
	if err != nil {
		t.Fatal(err)
	}
	got := tbl.Mean(0.4, seriesTAP(2))
	want := 1 - math.Pow(1-math.Pow(0.4, 2), 5)
	if math.Abs(got-want) > 0.15 {
		t.Fatalf("TAP k=2 p=0.4: got %.3f, theory %.3f", got, want)
	}
}

func TestFig2FullWalkAgreesWithAvailability(t *testing.T) {
	base := Fig2Params{
		N: 300, Tunnels: 50, Length: 4,
		Ks:     []int{3},
		Fracs:  []float64{0.3},
		Trials: 2, Seed: 11,
	}
	walk := base
	walk.FullWalk = true
	a, err := Fig2(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig2(walk)
	if err != nil {
		t.Fatal(err)
	}
	ra := a.Mean(0.3, seriesTAP(3))
	rb := b.Mean(0.3, seriesTAP(3))
	if ra != rb {
		t.Fatalf("availability check (%.4f) and full walk (%.4f) disagree", ra, rb)
	}
}

func TestFig3Monotone(t *testing.T) {
	p := Fig3Params{
		N: 400, Tunnels: 150, Length: 5, K: 3,
		Fracs:  []float64{0.05, 0.15, 0.3},
		Trials: 2, Seed: 13,
	}
	tbl, err := Fig3(p)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, f := range p.Fracs {
		cur := tbl.Mean(f, SeriesCorrupted)
		if math.IsNaN(cur) {
			t.Fatalf("missing cell at p=%.2f", f)
		}
		if cur < prev-0.02 {
			t.Fatalf("corruption not (weakly) monotone: %.3f after %.3f", cur, prev)
		}
		prev = cur
	}
	// The paper's takeaway: even at p=0.3 corruption stays modest.
	if got := tbl.Mean(0.3, SeriesCorrupted); got > 0.5 {
		t.Fatalf("corruption at p=0.3 is %.3f", got)
	}
}

func TestFig4aIncreasingInK(t *testing.T) {
	p := Fig4aParams{
		N: 400, Tunnels: 150, Length: 3,
		Ks: []int{1, 4, 8}, Malicious: 0.15,
		Trials: 2, Seed: 17,
	}
	tbl, err := Fig4a(p)
	if err != nil {
		t.Fatal(err)
	}
	k1 := tbl.Mean(1, SeriesCorrupted)
	k8 := tbl.Mean(8, SeriesCorrupted)
	if k8 <= k1 {
		t.Fatalf("corruption should increase with k: k=1 %.4f, k=8 %.4f", k1, k8)
	}
}

func TestFig4bDecreasingInL(t *testing.T) {
	p := Fig4bParams{
		N: 400, Tunnels: 200,
		Lengths: []int{1, 3, 6}, K: 3, Malicious: 0.2,
		Trials: 2, Seed: 19,
	}
	tbl, err := Fig4b(p)
	if err != nil {
		t.Fatal(err)
	}
	l1 := tbl.Mean(1, SeriesCorrupted)
	l6 := tbl.Mean(6, SeriesCorrupted)
	if l6 >= l1 {
		t.Fatalf("corruption should decrease with l: l=1 %.4f, l=6 %.4f", l1, l6)
	}
}

func TestFig5UnrefreshedClimbsRefreshedFlat(t *testing.T) {
	p := Fig5Params{
		N: 400, Tunnels: 100, Length: 3, K: 3, Malicious: 0.15,
		Units: 6, LeavePerUnit: 30, JoinPerUnit: 30,
		Trials: 2, Seed: 23,
	}
	tbl, err := Fig5(p)
	if err != nil {
		t.Fatal(err)
	}
	u0 := tbl.Mean(0, SeriesUnrefreshed)
	uEnd := tbl.Mean(float64(p.Units), SeriesUnrefreshed)
	if uEnd < u0 {
		t.Fatalf("un-refreshed corruption decreased: %.4f -> %.4f", u0, uEnd)
	}
	// With 6 units of 7.5% churn each, the un-refreshed curve must rise
	// measurably.
	if uEnd <= u0+0.005 {
		t.Fatalf("un-refreshed corruption did not climb: %.4f -> %.4f", u0, uEnd)
	}
	// Refreshed stays near its unit-0 level: bounded by a fraction of the
	// un-refreshed climb.
	r0 := tbl.Mean(0, SeriesRefreshed)
	rEnd := tbl.Mean(float64(p.Units), SeriesRefreshed)
	if (rEnd - r0) > (uEnd-u0)/2 {
		t.Fatalf("refreshed climbed like un-refreshed: refreshed %.4f->%.4f vs un-refreshed %.4f->%.4f",
			r0, rEnd, u0, uEnd)
	}
}

func TestFig6Ordering(t *testing.T) {
	p := Fig6Params{
		Sizes: []int{100, 400}, Lengths: []int{3, 5}, K: 3,
		FileBytes: 250_000, Transfers: 4, Sims: 2, Seed: 29,
	}
	tbl, err := Fig6(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range p.Sizes {
		x := float64(n)
		overt := tbl.Mean(x, SeriesOvert)
		b3 := tbl.Mean(x, seriesBasic(3))
		b5 := tbl.Mean(x, seriesBasic(5))
		o3 := tbl.Mean(x, seriesOpt(3))
		o5 := tbl.Mean(x, seriesOpt(5))
		for _, v := range []float64{overt, b3, b5, o3, o5} {
			if math.IsNaN(v) || v <= 0 {
				t.Fatalf("n=%d: missing/invalid mean", n)
			}
		}
		// The Figure 6 ordering: basic tunneling is the most expensive,
		// optimization removes most of the penalty, overt is cheapest.
		if !(b5 > b3) {
			t.Fatalf("n=%d: basic l=5 (%.2fs) not above basic l=3 (%.2fs)", n, b5, b3)
		}
		if !(b3 > o3) || !(b5 > o5) {
			t.Fatalf("n=%d: optimization did not help (b3=%.2f o3=%.2f b5=%.2f o5=%.2f)", n, b3, o3, b5, o5)
		}
		if !(o3 >= overt) {
			t.Fatalf("n=%d: opt l=3 (%.2fs) below overt (%.2fs)", n, o3, overt)
		}
	}
	// Larger networks lengthen basic tunneling (more overlay hops per
	// tunnel hop) but barely affect the optimized mode.
	growBasic := tbl.Mean(400, seriesBasic(5)) - tbl.Mean(100, seriesBasic(5))
	growOpt := tbl.Mean(400, seriesOpt(5)) - tbl.Mean(100, seriesOpt(5))
	if growBasic <= 0 {
		t.Fatalf("basic mode did not grow with network size: %.3f", growBasic)
	}
	if growOpt > growBasic {
		t.Fatalf("opt mode grew faster (%.3f) than basic (%.3f)", growOpt, growBasic)
	}
}

func TestTablesRender(t *testing.T) {
	tbl, err := Fig3(Fig3Params{
		N: 200, Tunnels: 40, Length: 3, K: 3,
		Fracs: []float64{0.1}, Trials: 1, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	if buf.Len() == 0 {
		t.Fatalf("empty render")
	}
	buf.Reset()
	tbl.RenderCSV(&buf)
	if buf.Len() == 0 {
		t.Fatalf("empty CSV")
	}
}

// Every cell of the grid runs once with its own (pt, trial), and the table
// receives every cell's sample.
func TestParallelRunsAll(t *testing.T) {
	const points, trials = 5, 10
	tbl := trace.NewTable("t", "x", "s")
	seen := make([]bool, points*trials)
	err := runTrials(tbl, points, trials, func(pt, trial int, mem *pastry.Scratch, add addFn) error {
		if mem == nil {
			t.Errorf("cell (%d, %d) got no scratch", pt, trial)
		}
		seen[pt*trials+trial] = true
		add(0, "s", float64(pt*trials+trial))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("cell %d not run", i)
		}
	}
	if a := tbl.Get(0, "s"); a == nil || a.N() != 50 || a.Min() != 0 || a.Max() != 49 {
		t.Fatalf("table did not receive every cell's sample: %+v", a)
	}
}

// The error reported is the lowest failing cell's in point-major order, not
// the first to complete: with four workers cell (2, 0) fails while (0, 3)
// is still asleep.
func TestParallelPropagatesError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	err03, err13, err20 := errors.New("cell (0, 3)"), errors.New("cell (1, 3)"), errors.New("cell (2, 0)")
	type cell struct{ pt, trial int }
	for _, c := range []struct {
		errs map[cell]error
		want error
	}{
		{map[cell]error{{1, 3}: err13}, err13},
		{map[cell]error{{2, 0}: err20, {0, 3}: err03}, err03},
	} {
		err := runTrials(trace.NewTable("t", "x", "s"), 3, 4, func(pt, trial int, _ *pastry.Scratch, _ addFn) error {
			if pt == 0 && trial == 3 {
				time.Sleep(10 * time.Millisecond)
			}
			return c.errs[cell{pt, trial}]
		})
		if err != c.want {
			t.Fatalf("failing %v: err = %v, want %v", c.errs, err, c.want)
		}
	}
}

func TestBuildWorldDeterministic(t *testing.T) {
	w1, err := BuildWorld(100, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := BuildWorld(100, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := w1.OV.LiveRefs(), w2.OV.LiveRefs()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("worlds diverge at node %d", i)
		}
	}
}
