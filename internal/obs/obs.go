// Package obs is the repository's observability layer: a dependency-free
// metrics registry with Prometheus text exposition.
//
// Three instrument kinds cover everything the deployment mode needs to
// report — monotone counters, settable gauges, and fixed-bucket
// histograms — all built on sync/atomic so the increment path is
// lock-free and allocation-free (the tapbench alloc gate pins both
// BenchmarkObsCounterInc and BenchmarkObsHistogramObserve at 0
// allocs/op). A Registry renders its instruments in the Prometheus text
// exposition format, version 0.0.4, over the Handler in http.go; the
// committed golden test pins the byte format scrapers rely on.
//
// The no-op sink. Every instrument method is nil-safe: a nil *Counter,
// *Gauge, or *Histogram silently discards the operation, and every
// constructor on a nil *Registry returns nil. Code that may run without
// observability — the deterministic simulator above all, whose engines
// must not grow new dependencies or nondeterminism — instruments itself
// unconditionally and is handed a nil registry; the instruments
// disappear into predicted-not-taken nil checks. Real-process hosts
// (cmd/tapnode, cmd/tapboard) pass a live registry and get a scrapable
// /metrics endpoint.
//
// Naming scheme (DESIGN.md §15): tap_<subsystem>_<noun>[_<unit>][_total]
// — e.g. tap_transport_frames_sent_total, tap_board_members,
// tap_node_forward_hop_seconds. Counters end in _total; gauges are bare
// nouns; histogram names carry their unit.
//
// One registry serves one instance of each subsystem: registering the
// same (name, labels) pair twice panics, the same
// programming-error-is-loud convention as transport.Attach. Components
// that can be multiply instantiated in one process take distinguishing
// constant labels.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name=value pair attached to an instrument at
// registration time.
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically increasing value. The zero value is NOT
// usable — obtain counters from a Registry — but a nil *Counter is: every
// method on nil is a no-op, which is how un-instrumented (simulator)
// runs pay nothing.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Store overwrites the counter's value. It exists for publish-style
// instrumentation — a host snapshotting a monotone total kept elsewhere
// (the runtime's GC cycle count, http.go) on each scrape — and must only
// ever be fed non-decreasing values, or scrapers will see counter
// resets.
func (c *Counter) Store(v uint64) {
	if c != nil {
		c.v.Store(v)
	}
}

// Load returns the current value; zero on a nil counter.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that goes up and down.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Load returns the current value; zero on a nil gauge.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Buckets are chosen at
// registration and never reallocated, so Observe touches only
// preexisting atomics: one bucket slot, the observation count, and a
// CAS-updated float64 sum.
//
// A scrape may observe the three updates of a concurrent Observe
// partially applied (a bucket incremented before the sum catches up);
// each series is still monotone and the skew is bounded by the number
// of in-flight observations, the same relaxed consistency the standard
// Prometheus client library ships.
type Histogram struct {
	bounds []float64 // sorted inclusive upper bounds, +Inf excluded
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small and fixed, and the scan is
	// branch-predictable — cheaper than binary search below ~30 buckets.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Count returns the number of observations; zero on a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values; zero on a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefBuckets are the default histogram buckets, in seconds: the standard
// latency spread from 500µs to 10s.
var DefBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// series is one labeled instrument inside a family.
type series struct {
	labels string // pre-rendered {a="b",c="d"} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	// bucketLabels are the pre-rendered label sets of each _bucket
	// series (constant labels merged with le), histograms only.
	bucketLabels []string
}

// family is every series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	series []*series
	byLbl  map[string]bool
}

// Registry holds instruments and renders them. A nil *Registry is the
// no-op sink: every constructor returns nil and WriteText writes
// nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnScrape registers fn to run before each exposition render. Hosts use
// it to publish values that are cheaper to snapshot than to maintain —
// runtime stats, engine counters marshaled off an event loop.
func (r *Registry) OnScrape(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// register files a new series under name, creating or extending its
// family. Panics on a (name, labels) duplicate or a type/help mismatch
// within a family — both are programming errors.
func (r *Registry) register(name, help, typ string, labels []Label, s *series) {
	mustValidName(name)
	for _, l := range labels {
		mustValidLabelName(l.Name)
	}
	s.labels = renderLabels(labels, "", "")
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLbl: make(map[string]bool)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	if f.byLbl[s.labels] {
		panic(fmt.Sprintf("obs: duplicate registration of %s%s", name, s.labels))
	}
	f.byLbl[s.labels] = true
	f.series = append(f.series, s)
}

// Counter registers and returns a counter. Nil registry → nil counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, "counter", labels, &series{c: c})
	return c
}

// Gauge registers and returns a gauge. Nil registry → nil gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(name, help, "gauge", labels, &series{g: g})
	return g
}

// Histogram registers and returns a histogram with the given upper
// bounds (strictly increasing; +Inf is implicit). Nil registry → nil
// histogram. An empty bounds slice takes DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly increasing", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	s := &series{h: h, bucketLabels: make([]string, len(bounds)+1)}
	for i, b := range bounds {
		s.bucketLabels[i] = renderLabels(labels, "le", formatFloat(b))
	}
	s.bucketLabels[len(bounds)] = renderLabels(labels, "le", "+Inf")
	r.register(name, help, "histogram", labels, s)
	return h
}

// renderLabels pre-renders a label set, optionally appending one extra
// pair (the histogram le), as `{a="b",le="0.5"}` — or "" when empty.
// Labels render in the order given; callers pass a stable order.
func renderLabels(labels []Label, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition-format label escapes:
// backslash, double-quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp applies the HELP-line escapes: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// formatFloat renders a float the way the exposition format expects:
// shortest round-trippable decimal, +Inf spelled literally.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func mustValidName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

func mustValidLabelName(name string) {
	if !validName(name) || name == "le" {
		panic(fmt.Sprintf("obs: invalid label name %q", name))
	}
}

// validName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// sortedFamilies snapshots the family list in name order. The render
// path iterates the snapshot outside the registry lock, and register
// may append to a family's series concurrently, so each family is
// copied by value with its own copy of the series slice header —
// series contents are immutable after registration.
func (r *Registry) sortedFamilies() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]family, 0, len(r.families))
	for _, f := range r.families {
		snap := *f
		snap.series = append([]*series(nil), f.series...)
		snap.byLbl = nil
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// runOnScrape executes the registered scrape hooks.
func (r *Registry) runOnScrape() {
	r.mu.Lock()
	hooks := append([]func(){}, r.onScrape...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}
