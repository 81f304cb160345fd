package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"tap/internal/rng"
	"tap/internal/simnet"
)

// smallThroughput is a laptop-scale parameterization: enough flows to
// exercise window pipelining and churn, small enough for the unit-test
// budget.
func smallThroughput() ExtThroughputParams {
	return ExtThroughputParams{
		N: 300, Clients: 4, TunnelsPer: 2, Length: 3,
		Flows: 200, FlowBytes: 2048, Dests: 64,
		Windows: []int{1, 8}, LossRates: []float64{0, 0.05},
		ChurnFails: 6, Seed: 11,
	}
}

// TestExtThroughputAcceptance pins the experiment's headline claims: the
// pipelined window beats stop-and-wait on goodput and p99 flow completion
// at every swept loss rate, loss produces retransmissions while the
// window keeps the delivered fraction high, and the ramp actually holds a
// concurrent flow population in flight.
func TestExtThroughputAcceptance(t *testing.T) {
	p := smallThroughput()
	tbl, err := ExtThroughput(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, loss := range p.LossRates {
		x := loss * 100
		g1 := tbl.Mean(x, seriesGoodput(1))
		g8 := tbl.Mean(x, seriesGoodput(8))
		if math.IsNaN(g1) || math.IsNaN(g8) {
			t.Fatalf("loss %.0f%%: missing goodput cells (w1=%v w8=%v)", x, g1, g8)
		}
		if g8 <= g1 {
			t.Fatalf("loss %.0f%%: window 8 goodput %.4f MB/s not above stop-and-wait %.4f", x, g8, g1)
		}
		p99w1 := tbl.Mean(x, seriesFCTp99(1))
		p99w8 := tbl.Mean(x, seriesFCTp99(8))
		if p99w8 >= p99w1 {
			t.Fatalf("loss %.0f%%: window 8 p99 FCT %.3fs not below stop-and-wait %.3fs", x, p99w8, p99w1)
		}
		for _, w := range p.Windows {
			if d := tbl.Mean(x, seriesDelivered(w)); d < 0.95 {
				t.Fatalf("loss %.0f%% w=%d: delivered fraction %.3f < 0.95", x, w, d)
			}
			if pc := tbl.Mean(x, seriesPeakConc(w)); pc < 10 {
				t.Fatalf("loss %.0f%% w=%d: peak concurrency %.0f — flows never overlapped", x, w, pc)
			}
		}
	}
	if r := tbl.Mean(5, seriesRetxRatio(8)); !(r > 0) {
		t.Fatalf("5%% loss produced retransmit ratio %.4f — faults not applied", r)
	}
}

// TestExtThroughputDeterministic: the same seed reproduces the exact
// table — goodput and FCT are functions of simulated time, never wall
// clock.
func TestExtThroughputDeterministic(t *testing.T) {
	run := func() string {
		p := smallThroughput()
		p.Flows = 60
		p.LossRates = []float64{0.02}
		tbl, err := ExtThroughput(p)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		tbl.RenderCSV(&b)
		return b.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different tables:\n%s\nvs\n%s", a, b)
	}
}

// TestZipfSampler checks the hand-rolled CDF inversion: draws are
// deterministic per stream, cover the catalog, and rank 0 is the hottest.
func TestZipfSampler(t *testing.T) {
	z := newZipfSampler(100, 1.1)
	counts := make([]int, 100)
	stream := rng.New(42)
	for i := 0; i < 20000; i++ {
		r := z.draw(stream)
		if r < 0 || r >= 100 {
			t.Fatalf("draw %d out of range", r)
		}
		counts[r]++
	}
	if counts[0] <= counts[50] || counts[0] <= counts[99] {
		t.Fatalf("rank 0 (%d draws) not hotter than mid (%d) and tail (%d)",
			counts[0], counts[50], counts[99])
	}
	// Head concentration: the top 10 ranks must dominate a uniform share.
	head := 0
	for _, c := range counts[:10] {
		head += c
	}
	if float64(head)/20000 < 0.3 {
		t.Fatalf("top-10 ranks hold only %.2f of draws — not Zipf-shaped", float64(head)/20000)
	}
}

// TestScheduleByStartOpensInStartThenIndexOrder: flows that share a start
// time open in index order, each at its own start, and an event scheduled
// earlier for the same instant still runs first — the order one callback
// per flow would give.
func TestScheduleByStartOpensInStartThenIndexOrder(t *testing.T) {
	k := simnet.NewKernel()
	ms := simnet.Time(time.Millisecond)
	starts := []simnet.Time{5 * ms, 2 * ms, 5 * ms, 2 * ms, 0, 5 * ms}
	var opened []int
	k.At(5*ms, func() { opened = append(opened, -1) })
	scheduleByStart(k, starts, func(i int) {
		if k.Now() != starts[i] {
			t.Fatalf("flow %d opened at %v, want %v", i, k.Now(), starts[i])
		}
		opened = append(opened, i)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 1, 3, -1, 0, 2, 5}; !slices.Equal(opened, want) {
		t.Fatalf("opened %v, want %v", opened, want)
	}
}

// TestExtThroughputRefusesNegativeSizes: a negative size, window or loss
// rate is an error naming it — not a makeslice panic or a table of NaNs —
// and nothing runs.
func TestExtThroughputRefusesNegativeSizes(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*ExtThroughputParams)
	}{
		{"FlowBytes", func(p *ExtThroughputParams) { p.FlowBytes = -1 }},
		{"Clients", func(p *ExtThroughputParams) { p.Clients = -2 }},
		{"Flows", func(p *ExtThroughputParams) { p.Flows = -3 }},
		{"Length", func(p *ExtThroughputParams) { p.Length = -2 }},
		{"window", func(p *ExtThroughputParams) { p.Windows = []int{8, -1} }},
		{"loss rate", func(p *ExtThroughputParams) { p.LossRates = []float64{-0.5} }},
	} {
		p := smallThroughput()
		c.set(&p)
		if tbl, err := ExtThroughput(p); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s: ExtThroughput = (%v, %v), want an error naming %s", c.name, tbl, err, c.name)
		}
	}
}

// TestFig3RefusesNegativeLength: a negative tunnel length reaches
// DeployDirect, which refuses it with an error instead of panicking.
func TestFig3RefusesNegativeLength(t *testing.T) {
	_, err := Fig3(Fig3Params{N: 100, Tunnels: 4, Length: -2, K: 3, Fracs: []float64{0.1}, Trials: 1, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "cannot deploy -2 anchors") {
		t.Fatalf("Fig3 with Length -2 = %v, want DeployDirect's error", err)
	}
}
