package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/trace"
)

// ExtThroughputParams configures the heavy-traffic streaming experiment:
// a population of windowed streams — up to the million-flow mark — rides
// a shared set of tunnels while the overlay churns underneath, with
// destination popularity drawn from a Zipf distribution (a few hot
// responders soak most of the traffic, the classic content-distribution
// shape). The sweep crosses per-link loss with send-window size; window 1
// degenerates to stop-and-wait — the window a reliable message
// (NetEngine.SendMessage) rides — and is the built-in baseline every other
// window is read against.
type ExtThroughputParams struct {
	N          int `count:""` // overlay size
	Clients    int `count:""` // stream sources (each owns TunnelsPer tunnels)
	TunnelsPer int `count:""` // formed tunnels per client
	Length     int `count:""` // tunnel length l
	// Flows is the concurrent stream population per combo. All flows open
	// within the throughputRamp window, so with flow completion times longer than
	// the ramp the whole population is in flight at once.
	Flows     int `count:""`
	FlowBytes int `count:""` // payload bytes per stream
	// Dests sizes the destination catalog: Flows draws from a
	// Zipf(throughputZipfS) popularity over Dests distinct ids.
	Dests int `count:""`
	// Windows are the send-window sizes swept; LossRates the per-link
	// loss probabilities.
	Windows   []int
	LossRates []float64
	// ChurnFails nodes fail at uniformly random times inside the ramp
	// window (THA migration keeps tunnels functional; address hints go
	// stale and must be re-resolved).
	ChurnFails int `count:""`
	Seed       uint64
}

// What every run of the experiment holds fixed.
const (
	throughputZipfS   = 1.1 // destination popularity exponent
	throughputSegSize = 256
	throughputRamp    = 10 * time.Second // arrival window for the flow population
)

// validate refuses a negative size, window or loss rate: zero picks the
// default, and a negative one means nothing.
func (p ExtThroughputParams) validate() error {
	if err := refuseNegative("ext-throughput", p); err != nil {
		return err
	}
	for _, w := range p.Windows {
		if w < 0 {
			return fmt.Errorf("experiments: ext-throughput: window %d must not be negative", w)
		}
	}
	for _, r := range p.LossRates {
		if r < 0 {
			return fmt.Errorf("experiments: ext-throughput: loss rate %v must not be negative", r)
		}
	}
	return nil
}

func (p ExtThroughputParams) withDefaults() ExtThroughputParams {
	if p.N == 0 {
		p.N = 1000
	}
	if p.Clients == 0 {
		p.Clients = 16
	}
	if p.TunnelsPer == 0 {
		p.TunnelsPer = 4
	}
	if p.Length == 0 {
		p.Length = 3
	}
	if p.Flows == 0 {
		p.Flows = 2000
	}
	if p.FlowBytes == 0 {
		p.FlowBytes = 2048
	}
	if p.Dests == 0 {
		p.Dests = 256
	}
	if len(p.Windows) == 0 {
		p.Windows = []int{1, 16}
	}
	if len(p.LossRates) == 0 {
		p.LossRates = []float64{0, 0.01, 0.05}
	}
	if p.ChurnFails == 0 {
		p.ChurnFails = p.N / 50
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Series name constructors: one column set per swept window size.
func seriesGoodput(w int) string   { return fmt.Sprintf("goodput_MBps(w=%d)", w) }
func seriesFCTp50(w int) string    { return fmt.Sprintf("fct_p50_s(w=%d)", w) }
func seriesFCTp99(w int) string    { return fmt.Sprintf("fct_p99_s(w=%d)", w) }
func seriesRetxRatio(w int) string { return fmt.Sprintf("retx_ratio(w=%d)", w) }
func seriesDelivered(w int) string { return fmt.Sprintf("delivered(w=%d)", w) }
func seriesPeakConc(w int) string  { return fmt.Sprintf("peak_concurrent(w=%d)", w) }

// zipfSampler draws catalog ranks from a Zipf(s) popularity by inverting
// a precomputed CDF. Hand-rolled so draws come from the deterministic
// rng.Stream, not math/rand.
type zipfSampler struct {
	cdf []float64
}

func newZipfSampler(n int, s float64) *zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSampler{cdf: cdf}
}

func (z *zipfSampler) draw(stream *rng.Stream) int {
	return sort.SearchFloat64s(z.cdf, stream.Float64())
}

// ExtThroughput sweeps loss rate against send-window size and reports,
// per combination: goodput (delivered payload over the makespan), flow
// completion time at p50 and p99, the retransmit ratio, the delivered
// fraction, and the peak number of simultaneously open streams. Every
// series is deterministic in Seed — goodput is computed from simulated
// time, not wall clock.
func ExtThroughput(p ExtThroughputParams) (*trace.Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	series := make([]string, 0, 6*len(p.Windows))
	for _, w := range p.Windows {
		series = append(series, seriesGoodput(w), seriesFCTp50(w), seriesFCTp99(w),
			seriesRetxRatio(w), seriesDelivered(w), seriesPeakConc(w))
	}
	tbl := trace.NewTable(
		fmt.Sprintf("Ext: streaming throughput — %d zipf flows over %d tunnels under churn (N=%d, l=%d, %dB flows, %d fails)",
			p.Flows, p.Clients*p.TunnelsPer, p.N, p.Length, p.FlowBytes, p.ChurnFails),
		"loss %", series...)

	// The window sizes are the trial axis. Streams split per loss rate
	// only: every window size replays the identical world, tunnels, churn
	// plan, and flow schedule.
	root := rng.New(p.Seed)
	err := runTrials(tbl, len(p.LossRates), len(p.Windows), func(li, wi int, mem *pastry.Scratch, add addFn) error {
		loss := p.LossRates[li]
		window := p.Windows[wi]
		stream := root.SplitN(fmt.Sprintf("tp-l%d", li), 0)
		m, err := runThroughputTrial(p, loss, window, stream, mem)
		if err != nil {
			return err
		}
		x := loss * 100
		add(x, seriesGoodput(window), m.goodputMBps)
		add(x, seriesFCTp50(window), m.fct.Quantile(0.50))
		add(x, seriesFCTp99(window), m.fct.Quantile(0.99))
		add(x, seriesRetxRatio(window), m.retxRatio)
		add(x, seriesDelivered(window), m.delivered)
		add(x, seriesPeakConc(window), float64(m.peakConcurrent))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// throughputMetrics is one (loss, window) combo's outcome.
type throughputMetrics struct {
	goodputMBps    float64
	fct            trace.Sample
	retxRatio      float64
	delivered      float64
	peakConcurrent int
}

// scheduleByStart schedules open(i) at starts[i] for every i through one
// shared callback. The kernel runs equal-time events in the order they were
// scheduled, so popping flows in (start, index) order opens each at the
// event where a callback of its own would have opened it.
func scheduleByStart(k *simnet.Kernel, starts []simnet.Time, open func(i int)) {
	order := make([]int, len(starts))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(starts[a], starts[b]), cmp.Compare(a, b)) })
	next := 0
	fire := func() {
		next++
		open(order[next-1])
	}
	for _, t := range starts {
		k.At(t, fire)
	}
}

// runThroughputTrial runs one full flow population through one faulty
// world and measures it.
func runThroughputTrial(p ExtThroughputParams, loss float64, window int, stream *rng.Stream, mem *pastry.Scratch) (*throughputMetrics, error) {
	w, err := BuildWorldIn(mem, p.N, 3, stream.Split("world"))
	if err != nil {
		return nil, err
	}
	kernel, net, eng := w.NewEngine(stream.Seed())
	kernel.MaxSteps = 0
	if loss > 0 {
		net.InstallFaults(&simnet.FaultPlan{Seed: stream.Seed(), LossRate: loss})
	}

	// Clients and their tunnel sets. Client origins are protected from
	// churn — a dead sender measures nothing.
	setup := stream.Split("setup")
	type src struct {
		origin  simnet.Addr
		tunnels []*core.Tunnel
	}
	srcs := make([]*src, 0, p.Clients)
	protected := make(map[simnet.Addr]bool)
	for ci := 0; ci < p.Clients; ci++ {
		node := w.OV.RandomLive(setup)
		for protected[node.Ref().Addr] {
			node = w.OV.RandomLive(setup)
		}
		protected[node.Ref().Addr] = true
		in, err := core.NewInitiator(w.Svc, node, setup.SplitN("client", ci))
		if err != nil {
			return nil, err
		}
		if err := in.DeployDirect(p.Length * p.TunnelsPer); err != nil {
			return nil, err
		}
		s := &src{origin: node.Ref().Addr, tunnels: make([]*core.Tunnel, 0, p.TunnelsPer)}
		for ti := 0; ti < p.TunnelsPer; ti++ {
			tun, err := in.FormTunnel(p.Length)
			if err != nil {
				return nil, fmt.Errorf("experiments: ext-throughput client %d tunnel %d: %w", ci, ti, err)
			}
			if err := tun.RefreshHints(w.Svc); err != nil {
				return nil, err
			}
			s.tunnels = append(s.tunnels, tun)
		}
		srcs = append(srcs, s)
	}

	// Destination catalog with Zipf popularity.
	catalog := make([]id.ID, p.Dests)
	for i := range catalog {
		setup.Bytes(catalog[i][:])
	}
	zipf := newZipfSampler(p.Dests, throughputZipfS)

	// Churn: fail random non-client nodes at uniform times inside the ramp
	// window. THA migration fails hop anchors over to replicas; stale hop
	// hints are re-resolved by the streams' retransmission path.
	churn := stream.Split("churn")
	for i := 0; i < p.ChurnFails; i++ {
		at := simnet.Time(float64(throughputRamp) * churn.Float64())
		kernel.At(at, func() {
			if w.OV.Size() <= p.N/2 {
				return
			}
			victim := w.OV.RandomLive(churn)
			if protected[victim.Ref().Addr] {
				return
			}
			addr := victim.Ref().Addr
			if err := w.OV.Fail(addr); err == nil {
				net.Detach(addr)
			}
		})
	}

	// The flow population: each flow opens at a uniform time in the ramp
	// window, on a round-robin client/tunnel, toward a Zipf-drawn
	// destination, and pumps FlowBytes through its window.
	flows := stream.Split("flows")
	content := make([]byte, p.FlowBytes)
	flows.Bytes(content)
	cfg := core.StreamConfig{Window: window, SegSize: throughputSegSize}
	m := &throughputMetrics{}
	var (
		deliveredN int
		live       int
		doneAt     trace.Sample
	)
	dests := make([]id.ID, p.Flows)
	starts := make([]simnet.Time, p.Flows)
	for fi := range starts {
		dests[fi] = catalog[zipf.draw(flows)]
		starts[fi] = simnet.Time(float64(throughputRamp) * flows.Float64())
	}
	// A flow opens at exactly its start, so its FCT is At − Opened.
	complete := func(o core.Outcome) {
		live--
		if o.Delivered {
			deliveredN++
			m.fct.Add((o.At - o.Opened).Seconds())
			doneAt.Add(o.At.Seconds())
		}
	}
	scheduleByStart(kernel, starts, func(fi int) {
		s := srcs[fi%len(srcs)]
		st := eng.OpenTunnelStream(s.origin, s.tunnels[(fi/len(srcs))%len(s.tunnels)], dests[fi], cfg)
		live++
		if live > m.peakConcurrent {
			m.peakConcurrent = live
		}
		st.OnComplete = complete
		st.WriteAll(content)
	})

	if err := kernel.Run(); err != nil {
		return nil, err
	}
	// Aggregate goodput over the 99th-percentile completion horizon: the
	// payload carried by the fastest 99% of delivered flows, divided by
	// the time the last of them finished. Dividing by the full makespan
	// instead would let a single straggler's worst-case backoff chain
	// define the divisor and say nothing about sustained throughput.
	if n := doneAt.N(); n > 0 {
		n99 := int(math.Ceil(0.99 * float64(n)))
		t99 := doneAt.Quantile(0.99)
		if t99 > 0 {
			m.goodputMBps = float64(n99) * float64(p.FlowBytes) / t99 / 1e6
		}
	}
	if eng.StreamSegsSent > 0 {
		m.retxRatio = float64(eng.StreamSegsRetx) / float64(eng.StreamSegsSent)
	}
	m.delivered = float64(deliveredN) / float64(p.Flows)
	return m, nil
}
