package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestExtReliabilityAcceptance pins the issue's acceptance criterion: under
// 5% per-link loss with mid-flow hop-node crashes, the retransmitting
// engine delivers ≥ 0.99 of flows while the fire-and-forget baseline is
// measurably lower.
func TestExtReliabilityAcceptance(t *testing.T) {
	tbl, err := ExtReliability(ExtReliabilityParams{
		LossRates: []float64{0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	retx := tbl.Mean(5, SeriesDeliveredRetx)
	noretx := tbl.Mean(5, SeriesDeliveredNoRetx)
	if math.IsNaN(retx) || math.IsNaN(noretx) {
		t.Fatalf("missing cells: retx=%v noretx=%v", retx, noretx)
	}
	if retx < 0.99 {
		t.Fatalf("retransmit delivery %.3f < 0.99 at 5%% loss + crashes", retx)
	}
	if noretx > retx-0.1 {
		t.Fatalf("fire-and-forget delivery %.3f not measurably below retransmit %.3f", noretx, retx)
	}
	att := tbl.Mean(5, SeriesAttemptsRetx)
	if !(att > 1) {
		t.Fatalf("mean attempts %.3f at 5%% loss — retransmission never engaged", att)
	}
	// Reliability costs latency: the retransmitting engine's successes
	// include recovered flows that waited out at least one timeout.
	latRetx := tbl.Mean(5, SeriesLatencyRetx)
	latNo := tbl.Mean(5, SeriesLatencyNoRetx)
	if math.IsNaN(latRetx) || math.IsNaN(latNo) {
		t.Fatalf("missing latency cells")
	}
	if latRetx < latNo {
		t.Fatalf("retransmit latency %.3fs below fire-and-forget %.3fs — recovered flows should pay timeout overhead", latRetx, latNo)
	}
}

// TestExtReliabilityDeterministic: the same seed must reproduce the exact
// table bit for bit.
func TestExtReliabilityDeterministic(t *testing.T) {
	run := func() string {
		tbl, err := ExtReliability(ExtReliabilityParams{
			LossRates: []float64{0.05}, Flows: 10, Trials: 1, Seed: 7,
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

// TestExtReliabilityLosslessBaseline: with no link loss and no crashes the
// two modes coincide — everything delivers in one attempt, so the ACK
// machinery adds no retransmissions.
func TestExtReliabilityLosslessBaseline(t *testing.T) {
	tbl, err := ExtReliability(ExtReliabilityParams{
		LossRates: []float64{0}, CrashFrac: -1, Flows: 10, Trials: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Mean(0, SeriesDeliveredRetx); got != 1 {
		t.Fatalf("retx delivery %.3f on a clean network", got)
	}
	if got := tbl.Mean(0, SeriesDeliveredNoRetx); got != 1 {
		t.Fatalf("noretx delivery %.3f on a clean network", got)
	}
	if got := tbl.Mean(0, SeriesAttemptsRetx); got != 1 {
		t.Fatalf("mean attempts %.3f on a clean network, want exactly 1", got)
	}
}
