package main

import "testing"

func TestOnlyPattern(t *testing.T) {
	names := []string{"BenchmarkAblationReplication", "BenchmarkExtThroughput",
		"BenchmarkFig2TunnelFailure", "BenchmarkFig3Collusion"}
	for _, c := range []struct{ only, want string }{
		{"^(BenchmarkExtThroughput|BenchmarkFig2TunnelFailure)$", "^(BenchmarkExtThroughput|BenchmarkFig2TunnelFailure)$"},
		{"Fig", "^(BenchmarkFig2TunnelFailure|BenchmarkFig3Collusion)$"},
		{"Replication/k=3", "^(BenchmarkAblationReplication)$"},
		{"(Fig3|Nothing/x)", "^(BenchmarkFig3Collusion)$"},
		{"Nothing", ""},
	} {
		if got := onlyPattern(names, c.only); got != c.want {
			t.Errorf("onlyPattern(%q) = %q, want %q", c.only, got, c.want)
		}
	}
}
