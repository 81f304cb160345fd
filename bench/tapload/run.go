package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// A workload is one set of inputs. The three TCP workloads are the same
// RoundTripStream call shaped by payload and chunk size; payload 0 marks
// the simulator workload, whose chunk is only the message size its layer
// probes use (ExtThroughput's default segment).
type workload struct {
	name    string
	why     string
	payload int
	chunk   int
}

var workloads = []workload{
	{"tcp_small", "64 chunks of 64 B: 448 small data frames per op, so per-frame cost (framing, codec, queues, loopback syscalls) is nearly all the work", 4 << 10, 64},
	{"tcp_bulk", "8 chunks of 32 KiB: per-byte cost (onion seal and peel, codec copies, large writes) dominates; ops_per_s x 0.25 MiB is goodput", 256 << 10, 32 << 10},
	{"tcp_form", "1-byte stream: tunnel formation (5 anchors minted and installed one ack at a time) and time to first byte, not steady state", 1, 512},
	{"sim_stream", "ExtThroughput, 250 windowed streams over a 1000-node simnet: the only workload on pastry, simnet, past and core.Stream; no socket", 0, 256},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) sim() bool { return w.payload == 0 }

// chunks is how many stream chunks one op carries.
func (w workload) chunks() int { return (w.payload + w.chunk - 1) / w.chunk }

// runConfig is one benchmark run. The driver sets workload, seed, seconds
// and traced; the rest are the constants of defaultConfig, which only the
// smoke test shrinks.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	traced  bool
	spans   string // where a traced run writes its spans

	rounds int           // timed segments per run; each gets seconds/rounds
	warmup time.Duration // untimed ops before each segment
	setups int           // set-up samples per run, the in-round ones included
	probes bool          // traced runs also time the layers one by one
}

// One round per timed second. The box this runs on is a shared VM whose
// speed moves by a quarter over seconds and minutes, and on one pinned
// CPU (pin.go) interference only ever slows a round down, so a run takes
// many short rounds and reports each timing from its quietest one
// (metrics.go); a fresh cluster per round also keeps relay state bounded,
// since procnode never evicts anchors. Set-up is sampled three times per
// round, because one bring-up of a few milliseconds is pure jitter.
func defaultConfig(w workload, seed uint64, seconds float64, traced bool) runConfig {
	rounds := int(seconds)
	if rounds < 2 {
		rounds = 2
	}
	return runConfig{
		w: w, seed: seed, seconds: seconds, traced: traced,
		spans:  fmt.Sprintf(".bench_build/tapload-spans-%s.json", w.name),
		rounds: rounds, warmup: 100 * time.Millisecond, setups: 3 * rounds, probes: true,
	}
}

// planned is the wall time a run should take: the timed segments, the
// warm-ups, and an allowance for set-up samples, teardowns and probes.
func (c runConfig) planned() time.Duration {
	d := time.Duration(c.seconds*float64(time.Second)) + time.Duration(c.rounds)*c.warmup
	d += time.Duration(c.setups) * 100 * time.Millisecond
	if c.traced && c.probes {
		d += 10 * time.Second
	}
	return d
}

// target is what a round drives: the loopback cluster or the simulator.
type target interface {
	// setUp brings the system up to and including its first verified op
	// where it has one; the caller times it as one set-up sample.
	setUp(rec *recorder, parent int, traced bool) error
	op(i int) error
	counters() netCounters
	// nodeCounters reads the nodes' registries; only a traced round asks.
	nodeCounters() (nodeCounters, error)
	tearDown()
	// listens names the ports that must refuse connections afterwards.
	listens() []string
}

type tcpTarget struct {
	w       workload
	payload []byte
	c       *cluster
}

func newTCPTarget(w workload, seed uint64) *tcpTarget {
	payload := make([]byte, w.payload)
	rand.New(rand.NewSource(int64(seed))).Read(payload)
	return &tcpTarget{w: w, payload: payload}
}

func (t *tcpTarget) setUp(rec *recorder, parent int, traced bool) error {
	c, err := bringUp(rec, parent, t.w.chunk, traced)
	if err != nil {
		return err
	}
	t.c = c
	// The first op pays the lazy dials; it belongs to the set-up sample.
	s := rec.begin("first_op", parent)
	err = t.op(warmBase - 1)
	rec.end(s)
	if err != nil {
		c.tearDown()
	}
	return err
}

// op stamps the op index into the seed-derived payload, so an echo of an
// earlier op can never pass for this one, and round-trips it.
func (t *tcpTarget) op(i int) error {
	if len(t.payload) >= 8 {
		binary.BigEndian.PutUint64(t.payload, uint64(i))
	} else {
		t.payload[0] = byte(i)
	}
	return t.c.roundTrip(t.payload)
}

func (t *tcpTarget) counters() netCounters { return t.c.counters() }
func (t *tcpTarget) tearDown()             { t.c.tearDown() }

func (t *tcpTarget) nodeCounters() (nodeCounters, error) { return t.c.nodeCounters() }
func (t *tcpTarget) listens() []string                   { return t.c.listens }

type simTarget struct {
	seed uint64
	// seen holds every seed's rendered table: the simulator is
	// deterministic in its seed, so a repeat must match byte for byte.
	seen map[uint64]string
}

func (t *simTarget) setUp(rec *recorder, parent int, traced bool) error {
	return simSetup(rec, parent, t.seed)
}

func (t *simTarget) op(i int) error {
	seed := t.seed + uint64(i)
	r, err := simOp(seed)
	if err != nil {
		return err
	}
	if r.delivered != 1 {
		return fmt.Errorf("sim seed %d delivered %v of its flows, want all", seed, r.delivered)
	}
	if prev, ok := t.seen[seed]; ok && prev != r.rendered {
		return fmt.Errorf("sim seed %d rendered a different table on a repeat", seed)
	}
	t.seen[seed] = r.rendered
	return nil
}

func (t *simTarget) counters() netCounters { return netCounters{} }
func (t *simTarget) tearDown()             {}

func (t *simTarget) nodeCounters() (nodeCounters, error) { return nodeCounters{}, nil }
func (t *simTarget) listens() []string                   { return nil }

// Timed ops of a round are indexed from 0 in every round, so every round
// of sim_stream runs the same seeds; warm-up and first ops draw from
// warmBase up so they never shift which seeds are timed.
const warmBase = 1 << 20

// roundStats is what one round measured.
type roundStats struct {
	dials    uint64 // connections dialed by the end of set-up
	ops      int    // verified ops in the timed segment
	elapsedS float64
	latMs    []float64
	cpuMs    float64
	mallocs  uint64
	net      netCounters // deltas over the timed segment
	node     nodeCounters
}

func (r roundStats) opsPerS() float64 { return float64(r.ops) / r.elapsedS }

// runner carries one run's state across rounds.
type runner struct {
	cfg       runConfig
	t         target
	rec       *recorder // non-nil only during the traced round
	baseline  int       // goroutines before the first round
	attempted int
	failed    int
	problems  []string
	setups    []float64
}

func newRunner(cfg runConfig) *runner {
	r := &runner{cfg: cfg}
	if cfg.w.sim() {
		r.t = &simTarget{seed: cfg.seed, seen: make(map[uint64]string)}
	} else {
		r.t = newTCPTarget(cfg.w, cfg.seed)
	}
	r.baseline = runtime.NumGoroutine()
	return r
}

// problem records a correctness failure that is not a single op's: a
// leak, a drop, an open port. Any problem makes the run incorrect.
func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "tapload: "+msg)
}

// doOp runs one verified op and books it.
func (r *runner) doOp(i int) (time.Duration, bool) {
	var s int
	if r.rec != nil {
		r.rec.op++
		s = r.rec.begin("op", 0)
	}
	start := time.Now()
	err := r.t.op(i)
	d := time.Since(start)
	r.rec.end(s)
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "tapload: op %d failed: %v\n", i, err)
		}
		return d, false
	}
	return d, true
}

// setUp takes one set-up sample. The first op inside it is a verified op
// like any other.
func (r *runner) setUp(traced bool) error {
	root := r.rec.begin("setup", 0)
	start := time.Now()
	err := r.t.setUp(r.rec, root, traced)
	d := time.Since(start).Seconds()
	r.rec.end(root)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if !r.cfg.w.sim() {
		r.attempted++
	}
	r.setups = append(r.setups, d)
	return nil
}

// tearDown stops the round's system and checks that nothing is left of
// it: the goroutine count returns to the pre-round baseline within two
// seconds and every port the round listened on refuses a connection.
func (r *runner) tearDown() {
	ports := r.t.listens()
	r.t.tearDown()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > r.baseline && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > r.baseline {
		r.problem("%d goroutines after teardown, %d before the round", n, r.baseline)
	}
	for _, hp := range ports {
		if conn, err := net.DialTimeout("tcp", hp, time.Second); err == nil {
			conn.Close()
			r.problem("port %s still accepts connections after teardown", hp)
		}
	}
}

// cpuMs is the process's user+system CPU time so far.
func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// round is bring-up (one set-up sample), untimed warm-up, the timed
// segment, teardown and leak check.
func (r *runner) round(segment time.Duration, rec *recorder) (roundStats, error) {
	var st roundStats
	traced := rec != nil
	r.rec = rec
	defer func() { r.rec = nil }()
	err := r.setUp(traced)
	if err != nil {
		return st, err
	}
	st.dials = r.t.counters().dials
	defer r.tearDown()

	for start, i := time.Now(), warmBase; time.Since(start) < r.cfg.warmup; i++ {
		r.doOp(i)
	}

	// Start every segment from a collected heap, so that a round does not
	// inherit the previous one's garbage.
	st.latMs = make([]float64, 0, 1<<14)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	net0 := r.t.counters()
	var node0 nodeCounters
	if traced {
		if node0, err = r.t.nodeCounters(); err != nil {
			return st, err
		}
	}
	cpu0 := cpuMs()
	start := time.Now()
	for i := 0; time.Since(start) < segment; i++ {
		if d, ok := r.doOp(i); ok {
			st.ops++
			st.latMs = append(st.latMs, float64(d)/1e6)
		}
	}
	st.elapsedS = time.Since(start).Seconds()
	st.cpuMs = cpuMs() - cpu0
	runtime.ReadMemStats(&ms1)
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.net = r.t.counters().sub(net0)
	if traced {
		node1, err := r.t.nodeCounters()
		if err != nil {
			return st, err
		}
		st.node = node1.sub(node0)
		if st.node.retransmits > 0 {
			r.problem("%v retransmits in a timed segment", st.node.retransmits)
		}
	}
	if st.net.dropped > 0 {
		r.problem("transports dropped %d messages in a timed segment", st.net.dropped)
	}
	if st.ops == 0 {
		r.problem("a timed segment completed no verified op")
	}

	// Re-run the round's first timed op: for sim_stream this re-renders
	// its first seed's table and compares it byte for byte.
	r.doOp(0)
	return st, nil
}

// extraSetup is a set-up sample outside a round: bring-up through first
// verified op, then straight back down.
func (r *runner) extraSetup() error {
	if err := r.setUp(false); err != nil {
		return err
	}
	r.tearDown()
	return nil
}

// runResult is a run's outcome so far. The watchdog reads it from its own
// goroutine when a run overstays its deadline, so the runner updates it
// only under mu, once per round.
type runResult struct {
	cfg runConfig

	mu        sync.Mutex
	rounds    []roundStats // untraced
	traced    *roundStats
	rec       *recorder
	setups    []float64
	attempted int
	failed    int
	problems  []string
}

func (res *runResult) correct() bool {
	return res.failed == 0 && len(res.problems) == 0 && len(res.rounds) > 0
}

// run executes the rounds, interleaving the extra set-up samples between
// them so that they too are spread over the whole run. With cfg.traced
// the last round is the traced one.
func run(res *runResult) error {
	cfg := res.cfg
	r := newRunner(cfg)
	segment := time.Duration(cfg.seconds * float64(time.Second) / float64(cfg.rounds))
	for i := 0; i < cfg.rounds; i++ {
		var rec *recorder
		if cfg.traced && i == cfg.rounds-1 {
			rec = newRecorder()
		}
		st, err := r.round(segment, rec)
		if err != nil {
			return err
		}
		for len(r.setups) < (i+1)*cfg.setups/cfg.rounds {
			if err := r.extraSetup(); err != nil {
				return err
			}
		}
		res.mu.Lock()
		if rec != nil {
			res.traced, res.rec = &st, rec
		} else {
			res.rounds = append(res.rounds, st)
		}
		res.setups = append([]float64(nil), r.setups...)
		res.problems = append([]string(nil), r.problems...)
		res.attempted, res.failed = r.attempted, r.failed
		res.mu.Unlock()
	}
	return nil
}
