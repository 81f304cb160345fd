package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	vals := []float64{4, 1, 3, 2} // unsorted on purpose; quantile must not reorder its input
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {0.9, 3.7}, {1, 4},
	} {
		if got := quantile(vals, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", vals, c.q, got, c.want)
		}
	}
	if vals[0] != 4 {
		t.Error("quantile sorted its caller's slice")
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestSpread(t *testing.T) {
	// quartiles 20 and 40 around a median of 30
	if got := spread([]float64{50, 10, 40, 20, 30}); !near(got, 20.0/30) {
		t.Errorf("spread = %v, want %v", got, 20.0/30)
	}
	if got := spread([]float64{3, 3, 3}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, false); !near(got, 0.10) {
		t.Errorf("lower-is-better 100 -> 110: worse by %v, want 0.10", got)
	}
	if got := worseBy(100, 90, true); !near(got, 0.10) {
		t.Errorf("higher-is-better 100 -> 90: worse by %v, want 0.10", got)
	}
	if got := worseBy(100, 90, false); !near(got, -0.10) {
		t.Errorf("lower-is-better 100 -> 90: worse by %v, want -0.10", got)
	}
}

// Every end-to-end timing is the best of the rounds' own values, not a
// quantile of the pooled samples; set-up time is the fastest sample and
// the alloc count the median round's.
func TestBestOverRounds(t *testing.T) {
	fill := func(n int, v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	rounds := []roundStats{
		{ops: 10, elapsedS: 2, latMs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, cpuMs: 20, mallocs: 1000},
		{ops: 20, elapsedS: 2, latMs: fill(20, 6), cpuMs: 20, mallocs: 4000},
		{ops: 30, elapsedS: 2, latMs: fill(30, 7), cpuMs: 90, mallocs: 9000},
	}
	got := endToEndValues(rounds, []float64{0.3, 0.1, 0.2})
	want := map[string]float64{
		"setup_s":       0.1,
		"ops_per_s":     15,  // of 5, 10, 15
		"op_p50_ms":     5.5, // of 5.5, 6, 7
		"cpu_ms_per_op": 1,   // of 2, 1, 3
		"allocs_per_op": 200, // median of 100, 200, 300
	}
	for name, w := range want {
		if !near(got[name], w) {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(endToEnd) {
		t.Errorf("%d end-to-end values, %d declared", len(got), len(endToEnd))
	}
	p90 := overRounds(rounds, 0, func(r roundStats) float64 { return r.latencyQuantile(0.9) })
	if !near(p90, 6) { // of 9.1, 6, 7
		t.Errorf("best round's p90 = %v, want 6", p90)
	}
}
