package experiments

import (
	"strings"
	"testing"

	"tap/internal/rng"
	"tap/internal/trace"
)

// TestExperimentsRefuseNegativeCounts: a negative count is refused with an
// error naming it, before any work. Fig2's and Fig4a's tunnel counts once
// panicked in DeployTunnels, and a negative trial or transfer count printed
// a table with no rows.
func TestExperimentsRefuseNegativeCounts(t *testing.T) {
	for _, c := range []struct {
		exp, field string
		run        func() (*trace.Table, error)
	}{
		{"fig2", "Tunnels", func() (*trace.Table, error) { return Fig2(Fig2Params{N: 200, Tunnels: -1}) }},
		{"fig2", "Trials", func() (*trace.Table, error) { return Fig2(Fig2Params{N: 200, Trials: -1}) }},
		{"fig3", "Trials", func() (*trace.Table, error) { return Fig3(Fig3Params{Trials: -1}) }},
		{"fig4a", "Tunnels", func() (*trace.Table, error) { return Fig4a(Fig4aParams{N: 200, Tunnels: -3}) }},
		{"fig4b", "K", func() (*trace.Table, error) { return Fig4b(Fig4bParams{K: -1}) }},
		{"fig5", "LeavePerUnit", func() (*trace.Table, error) { return Fig5(Fig5Params{LeavePerUnit: -1}) }},
		{"fig6", "Transfers", func() (*trace.Table, error) { return Fig6(Fig6Params{Transfers: -1}) }},
		{"fig6", "Sims", func() (*trace.Table, error) { return Fig6(Fig6Params{Sims: -2}) }},
		{"ext-cover", "Length", func() (*trace.Table, error) { return ExtCover(ExtCoverParams{Length: -2}) }},
		{"ext-anon", "Tunnels", func() (*trace.Table, error) { return ExtAnon(ExtAnonParams{Tunnels: -1}) }},
		{"ext-inflight", "Transfers", func() (*trace.Table, error) { return ExtInflight(ExtInflightParams{Transfers: -1}) }},
		{"ext-reliability", "Trials", func() (*trace.Table, error) { return ExtReliability(ExtReliabilityParams{Trials: -2}) }},
		{"ext-scale", "Routes", func() (*trace.Table, error) { return ExtScale(ExtScaleParams{Sizes: []int{200}, Routes: -1}) }},
		{"ext-selfheal", "Trials", func() (*trace.Table, error) { return ExtSelfHeal(ExtSelfHealParams{Trials: -1}) }},
		{"ext-session", "Sessions", func() (*trace.Table, error) { return ExtSession(ExtSessionParams{Sessions: -1}) }},
		{"ext-timing", "Length", func() (*trace.Table, error) { return ExtTiming(ExtTimingParams{Length: -2}) }},
	} {
		tbl, err := c.run()
		if want := "experiments: " + c.exp + ": " + c.field + " is -"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s with a negative %s = (%v, %v), want an error containing %q", c.exp, c.field, tbl, err, want)
		}
	}
}

// TestDeployTunnelsRefusesNegativeCount: a negative tunnel count is an
// error, not a makeslice panic.
func TestDeployTunnelsRefusesNegativeCount(t *testing.T) {
	w, err := BuildWorld(100, 3, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if ts, err := DeployTunnels(w, -1, 3, rng.New(2)); err == nil || !strings.Contains(err.Error(), "cannot deploy -1 tunnels") {
		t.Fatalf("DeployTunnels(-1) = (%v, %v), want an error", ts, err)
	}
}
