package experiments

import (
	"math"
	"strings"
	"testing"

	"tap/internal/rng"
)

// TestExtSelfHealAcceptance pins the issue's acceptance criterion: under
// 10%-per-epoch batch churn with k=2 replication, the pooled client keeps
// send availability ≥ 0.99 while the single-tunnel baseline drops below
// 0.90, and the pool's time-to-repair is actually measured (at least one
// death→promotion cycle completed).
func TestExtSelfHealAcceptance(t *testing.T) {
	tbl, err := ExtSelfHeal(ExtSelfHealParams{
		ChurnRates: []float64{0.10},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := tbl.Mean(10, SeriesAvailPool)
	single := tbl.Mean(10, SeriesAvailSingle)
	if math.IsNaN(pool) || math.IsNaN(single) {
		t.Fatalf("missing cells: pool=%v single=%v", pool, single)
	}
	if pool < 0.99 {
		t.Fatalf("pool availability %.4f < 0.99 at 10%%/epoch churn", pool)
	}
	if single >= 0.90 {
		t.Fatalf("single-tunnel availability %.4f not < 0.90 at 10%%/epoch churn — churn too gentle to differentiate", single)
	}
	ttr := tbl.Mean(10, SeriesTTRPool)
	if math.IsNaN(ttr) || !(ttr > 0) {
		t.Fatalf("time-to-repair %v — no repair cycle was measured", ttr)
	}
}

// TestExtSelfHealDeterministic: the same seed must reproduce the exact
// table bit for bit.
func TestExtSelfHealDeterministic(t *testing.T) {
	run := func() string {
		tbl, err := ExtSelfHeal(ExtSelfHealParams{
			ChurnRates: []float64{0.10}, N: 150, Singles: 3, Trials: 1, Seed: 7,
		})
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

// TestExtSelfHealQuietBaseline: with no churn both clients deliver
// everything, the pool never declares a death, and rebuild admission is
// never consulted — the probe machinery at rest is free of false alarms.
func TestExtSelfHealQuietBaseline(t *testing.T) {
	p := ExtSelfHealParams{N: 150, Singles: 2, Trials: 1, Seed: 9}.withDefaults()
	res, err := runSelfHealTrial(p, 0, rng.New(p.Seed).Split("quiet"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.availPool != 1 || res.availSingle != 1 {
		t.Fatalf("clean-network availability pool=%.4f single=%.4f, want 1.0", res.availPool, res.availSingle)
	}
	if res.poolStats.SlotDeaths != 0 || res.poolStats.Rebuilds != 0 {
		t.Fatalf("pool churned on a quiet network: %+v", res.poolStats)
	}
}
