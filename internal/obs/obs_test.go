package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tap_test_events_total", "Events.")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	c.Store(9)
	if c.Load() != 9 {
		t.Fatalf("counter after Store = %d, want 9", c.Load())
	}
	g := r.Gauge("tap_test_depth", "Depth.")
	g.Set(7)
	g.Dec()
	g.Add(-2)
	g.Inc()
	if g.Load() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tap_test_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if want := 102.65; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	// Bucket counts are non-cumulative internally: ≤0.1 gets 2 (0.05 and
	// the boundary-inclusive 0.1), ≤1 gets 1, ≤10 gets 1, +Inf gets 1.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

// TestNilSink is the simulator's contract: every instrument and registry
// method must be a no-op on nil, so un-instrumented runs need no
// conditionals at call sites.
func TestNilSink(t *testing.T) {
	var r *Registry
	c := r.Counter("tap_test_total", "x")
	g := r.Gauge("tap_test", "x")
	h := r.Histogram("tap_test_seconds", "x", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned live instruments")
	}
	c.Inc()
	c.Add(3)
	c.Store(1)
	g.Set(2)
	g.Inc()
	g.Dec()
	h.Observe(1.5)
	r.OnScrape(func() { t.Fatal("hook ran on nil registry") })
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments reported values")
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry rendered %q (err %v)", sb.String(), err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("tap_test_total", "x", Label{"dir", "in"})
	r.Counter("tap_test_total", "x", Label{"dir", "out"}) // distinct labels: fine
	for _, fn := range []func(){
		func() { r.Counter("tap_test_total", "x", Label{"dir", "in"}) }, // duplicate
		func() { r.Gauge("tap_test_total", "x") },                       // type clash
		func() { r.Counter("0bad", "x") },                               // bad name
		func() { r.Counter("tap_ok_total", "x", Label{"le", "y"}) },     // reserved label
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("tap_test_total", "Events.").Add(3)
	scraped := 0
	r.OnScrape(func() { scraped++ })
	srv := httptest.NewServer(NewDebugMux(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	snap, err := ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("tap_test_total"); !ok || v != 3 {
		t.Fatalf("scraped value %v ok=%v", v, ok)
	}
	if scraped != 1 {
		t.Fatalf("OnScrape hook ran %d times", scraped)
	}

	// pprof rides the same mux.
	resp2, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint status %d", resp2.StatusCode)
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("tap_rt_total", "C.", Label{"peer", `quo"te\slash`}).Add(7)
	r.Gauge("tap_rt_depth", "G.").Set(-4)
	h := r.Histogram("tap_rt_seconds", "H.", []float64{0.5, 5})
	h.Observe(0.25)
	h.Observe(6)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parsing own exposition: %v\n%s", err, sb.String())
	}
	if v, ok := snap.Value("tap_rt_total", Label{"peer", `quo"te\slash`}); !ok || v != 7 {
		t.Fatalf("counter with escaped label: %v ok=%v", v, ok)
	}
	if v, ok := snap.Value("tap_rt_depth"); !ok || v != -4 {
		t.Fatalf("gauge: %v ok=%v", v, ok)
	}
	if v, ok := snap.Value("tap_rt_seconds_bucket", Label{"le", "+Inf"}); !ok || v != 2 {
		t.Fatalf("+Inf bucket: %v ok=%v", v, ok)
	}
	if v, ok := snap.Value("tap_rt_seconds_count"); !ok || v != 2 {
		t.Fatalf("histogram count: %v ok=%v", v, ok)
	}
	if snap.Types["tap_rt_seconds"] != "histogram" {
		t.Fatalf("TYPE line lost: %v", snap.Types)
	}
	if got := snap.Sum("tap_rt_total"); got != 7 {
		t.Fatalf("Sum = %v", got)
	}
}

// TestParseSpelledOutValues: sample values may be the exposition format's
// spelled-out infinities and NaN, and an optional millisecond timestamp
// may follow the value.
func TestParseSpelledOutValues(t *testing.T) {
	doc := "tap_hi +Inf\ntap_hi2 Inf\ntap_lo -Inf\ntap_nan NaN\ntap_ts 3.5 1700000000000\n"
	snap, err := ParseText(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"tap_hi": math.Inf(1), "tap_hi2": math.Inf(1), "tap_lo": math.Inf(-1), "tap_ts": 3.5} {
		if v, ok := snap.Value(name); !ok || v != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, v, ok, want)
		}
	}
	if v, ok := snap.Value("tap_nan"); !ok || !math.IsNaN(v) {
		t.Errorf("tap_nan = %v (ok=%v), want NaN", v, ok)
	}
	if _, err := ParseText(strings.NewReader("tap_ts 1 noon\n")); err == nil {
		t.Error("parser accepted a non-numeric timestamp")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, doc := range []string{
		"tap_ok 1\nnot a metric line at all!\n",
		"tap_bad{le=}1\n",
		`tap_bad{x="unterminated} 1` + "\n",
		"tap_bad one\n",
		"# TYPE tap_bad flavor\n",
		"0leading_digit 1\n",
	} {
		if _, err := ParseText(strings.NewReader(doc)); err == nil {
			t.Fatalf("parser accepted %q", doc)
		}
	}
}
