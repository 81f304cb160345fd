package experiments

import (
	"fmt"
	"time"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/trace"
)

// ExtReliabilityParams configures the churn-reliability experiment: tunnel
// transfers over a faulty network — per-link message loss plus scheduled
// crashes of current hop nodes mid-flow — sent as reliable messages
// (core.NetEngine.SendMessage) and as fire-and-forget flows. The paper argues TAP tunnels *survive* node
// failure because hop anchors fail over to THA replicas (§6); this
// experiment measures what that survival is worth to in-flight traffic
// once someone actually retransmits into the recovered tunnel.
type ExtReliabilityParams struct {
	N int `count:""`
	// LossRates are the per-link loss probabilities swept on the x axis.
	LossRates []float64
	// CrashFrac is the fraction of flows whose middle-hop node crashes
	// 300 ms after the flow starts (restarting 30 s later). The crashed
	// node drops out of the overlay, so the hop anchor migrates to its
	// replica; its address hint goes stale.
	CrashFrac float64
	Flows     int `count:""`
	Trials    int `count:""`
	Seed      uint64
}

// What every run of the experiment holds fixed.
const (
	relLength      = 3    // tunnel length l
	relFileBytes   = 2000 // payload per flow
	relMaxAttempts = 10   // the reliable mode's per-message transmission budget
)

func (p ExtReliabilityParams) withDefaults() ExtReliabilityParams {
	if p.N == 0 {
		p.N = 250
	}
	if len(p.LossRates) == 0 {
		p.LossRates = []float64{0, 0.02, 0.05, 0.10}
	}
	if p.CrashFrac == 0 {
		p.CrashFrac = 0.5
	}
	if p.Flows == 0 {
		p.Flows = 30
	}
	if p.Trials == 0 {
		p.Trials = 2
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Series names for the churn-reliability experiment.
const (
	SeriesDeliveredRetx   = "delivered(retx)"
	SeriesDeliveredNoRetx = "delivered(noretx)"
	SeriesLatencyRetx     = "latency_s(retx)"
	SeriesLatencyNoRetx   = "latency_s(noretx)"
	SeriesAttemptsRetx    = "attempts(retx)"
)

// ExtReliability reports delivery rate, successful-transfer latency, and
// (for the reliable mode) mean end-to-end attempts per loss rate. Both
// modes replay the identical scenario — same world, tunnels, hints,
// destinations, and fault plan — differing only in whether the flow is a
// reliable message or a fire-and-forget envelope.
func ExtReliability(p ExtReliabilityParams) (*trace.Table, error) {
	if err := refuseNegative("ext-reliability", p); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	tbl := trace.NewTable(
		fmt.Sprintf("Ext: churn reliability — ACK/retransmit vs fire-and-forget under link loss + hop crashes (N=%d, l=%d, %d flows, crash frac %.2f, trials=%d)",
			p.N, relLength, p.Flows, p.CrashFrac, p.Trials),
		"loss %",
		SeriesDeliveredRetx, SeriesDeliveredNoRetx,
		SeriesLatencyRetx, SeriesLatencyNoRetx, SeriesAttemptsRetx)
	root := rng.New(p.Seed)
	err := runTrials(tbl, len(p.LossRates), p.Trials, func(li, trial int, mem *pastry.Scratch, add addFn) error {
		loss := p.LossRates[li]
		x := loss * 100
		for _, retx := range []bool{true, false} {
			// Split (unlike draws) leaves the parent stream untouched, so
			// both modes derive identical substreams and replay the same
			// scenario.
			stream := root.SplitN(fmt.Sprintf("rel-l%d", li), trial)
			delivered, lat, att, err := runReliabilityTrial(p, loss, retx, stream, mem)
			if err != nil {
				return err
			}
			if retx {
				add(x, SeriesDeliveredRetx, delivered)
				if lat.N() > 0 {
					add(x, SeriesLatencyRetx, lat.Mean())
				}
				if att.N() > 0 {
					add(x, SeriesAttemptsRetx, att.Mean())
				}
			} else {
				add(x, SeriesDeliveredNoRetx, delivered)
				if lat.N() > 0 {
					add(x, SeriesLatencyNoRetx, lat.Mean())
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// runReliabilityTrial runs one world through the faulty network in one
// mode and returns the delivery fraction plus latency/attempt accumulators
// over delivered flows.
func runReliabilityTrial(p ExtReliabilityParams, loss float64, retx bool, stream *rng.Stream, mem *pastry.Scratch) (float64, trace.Accum, trace.Accum, error) {
	var lat, att trace.Accum
	w, err := BuildWorldIn(mem, p.N, 3, stream.Split("world"))
	if err != nil {
		return 0, lat, att, err
	}
	kernel, net, eng := w.NewEngine(stream.Seed())
	kernel.MaxSteps = 0

	// Flows are formed up front (hints resolve the t=0 hop nodes)
	// and spaced out so each crash lands 300 ms into its own flow.
	const spacing = 20 * time.Second
	ts := stream.Split("flows")
	type flowPlan struct {
		origin simnet.Addr
		tun    *core.Tunnel
		dest   id.ID
		env    *core.Envelope
		start  simnet.Time
	}
	type crashPlan struct {
		addr simnet.Addr
		at   simnet.Time
	}
	flows := make([]flowPlan, 0, p.Flows)
	var candidates []crashPlan
	origins := make(map[simnet.Addr]struct{})
	for fi := 0; fi < p.Flows; fi++ {
		node := w.OV.RandomLive(ts)
		_, tun, err := ownTunnel(w, node, relLength, ts.SplitN("init", fi))
		if err != nil {
			return 0, lat, att, err
		}
		origins[node.Ref().Addr] = struct{}{}
		if err := tun.RefreshHints(w.Svc); err != nil {
			return 0, lat, att, err
		}
		var dest id.ID
		ts.Bytes(dest[:])
		// Built in both modes, so both draw the identical scenario from ts;
		// only the fire-and-forget mode sends it (a message seals its own).
		env, err := core.BuildForwardHinted(tun, dest, make([]byte, relFileBytes), ts)
		if err != nil {
			return 0, lat, att, err
		}
		start := simnet.Time(fi) * simnet.Time(spacing)
		flows = append(flows, flowPlan{origin: node.Ref().Addr, tun: tun, dest: dest, env: env, start: start})
		if ts.Float64() < p.CrashFrac {
			mid := tun.Hops[len(tun.Hops)/2].HopID
			if hn, ok := w.Dir.HopNode(mid); ok {
				candidates = append(candidates, crashPlan{addr: hn.Ref().Addr, at: start + simnet.Time(300*time.Millisecond)})
			}
		}
	}

	// Crash victims must not be flow origins (an initiator that dies takes
	// its own measurement with it), and each address crashes once.
	var crashes []simnet.CrashWindow
	claimed := make(map[simnet.Addr]struct{})
	for _, c := range candidates {
		if _, isOrigin := origins[c.addr]; isOrigin {
			continue
		}
		if _, dup := claimed[c.addr]; dup {
			continue
		}
		claimed[c.addr] = struct{}{}
		crashes = append(crashes, simnet.CrashWindow{
			Addr: c.addr, At: c.at, Restart: c.at + simnet.Time(30*time.Second),
		})
	}
	net.InstallFaults(&simnet.FaultPlan{
		Seed:     stream.Seed(),
		LossRate: loss,
		Crashes:  crashes,
		OnCrash: func(a simnet.Addr) {
			// The overlay notices the crash and THA replicas migrate, so
			// hop anchors fail over (§6). The restarted node never rejoins:
			// it lingers as a reachable non-member, the worst case for
			// stale address hints.
			_ = w.OV.Fail(a)
		},
	})

	type flowResult struct {
		got bool
		out core.Outcome
	}
	results := make([]flowResult, len(flows))
	for fi := range flows {
		fi := fi
		f := flows[fi]
		done := func(o core.Outcome) { results[fi] = flowResult{got: true, out: o} }
		kernel.At(f.start, func() {
			if retx {
				eng.SendMessage(f.origin, f.tun, f.dest, make([]byte, relFileBytes), relMaxAttempts, done)
			} else {
				eng.SendForward(f.origin, f.env, done)
			}
		})
	}
	if err := kernel.Run(); err != nil {
		return 0, lat, att, err
	}

	delivered := 0
	for fi, r := range results {
		if !r.got || !r.out.Delivered {
			continue
		}
		delivered++
		lat.Add((r.out.At - flows[fi].start).Seconds())
		att.Add(float64(r.out.Attempts))
	}
	return float64(delivered) / float64(len(flows)), lat, att, nil
}
