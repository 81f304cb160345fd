package main

// layers.go holds the per-layer probes of a traced run: each times one
// module's public calls from outside, on the message sizes of the
// workload being run. Together with adapter.go it is everything in the
// benchmark that imports the program.

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"tap/internal/board"
	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/experiments"
	"tap/internal/id"
	"tap/internal/procnode"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
	"tap/internal/wire"
)

// probe times fn in batches: prep (untimed, may be nil) readies a batch's
// inputs, then fn(0..per-1) runs timed. It returns the median over
// batches of nanoseconds per call, and mallocs per call over all batches.
func probe(batches, per int, prep func(), fn func(i int)) (ns, allocs float64) {
	var ms0, ms1 runtime.MemStats
	perBatch := make([]float64, batches)
	var mallocs uint64
	for b := range perBatch {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < per; i++ {
			fn(i)
		}
		perBatch[b] = float64(time.Since(start)) / float64(per)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
	}
	return median(perBatch), float64(mallocs) / float64(batches*per)
}

// Microsecond-scale calls get 20 batches of 50 (1000 calls); the three
// millisecond-scale ones (world build, tunnel deployment, board
// registration with its dial) get 25 single calls.
const (
	fastBatches, fastPer = 20, 50
	slowBatches          = 25
)

// fixture is one stream's worth of tunnel material at a workload's chunk
// size: what RoundTripStream builds before it sends.
type fixture struct {
	stream    *rng.Stream
	gen       *tha.Generator
	fw, rp    *core.Tunnel
	fwAddrs   []transport.Addr
	rpAddrs   []transport.Addr
	dest      id.ID
	bid       id.ID
	req       []byte // exit payload carrying one chunk
	env       *core.Envelope
	rt        *core.ReplyTunnel
	echoPlain []byte // what the responder seals for one chunk
	key       crypt.Key
}

func newFixture(seed uint64, chunk int, fwAddrs []transport.Addr) (*fixture, error) {
	f := &fixture{
		stream:  rng.New(seed).Split("tapload-probe"),
		fwAddrs: fwAddrs,
		rpAddrs: []transport.Addr{4, 5},
		dest:    procnode.NodeID(6),
		bid:     procnode.NodeID(7),
	}
	var err error
	if f.gen, err = tha.NewGenerator(f.bid[:], rand.Reader); err != nil {
		return nil, err
	}
	mint := func(k int) (*core.Tunnel, error) {
		t := &core.Tunnel{Hops: make([]tha.Secret, k)}
		for i := range t.Hops {
			if t.Hops[i], err = f.gen.Generate(rand.Reader); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	if f.fw, err = mint(forwardHops); err != nil {
		return nil, err
	}
	if f.rp, err = mint(replyHops); err != nil {
		return nil, err
	}
	if f.rt, err = core.BuildReply(f.rp, f.rpAddrs, f.bid, f.stream); err != nil {
		return nil, err
	}
	if f.key, err = crypt.NewKey(rand.Reader); err != nil {
		return nil, err
	}
	payload := make([]byte, chunk)
	f.stream.Bytes(payload)
	// procnode's exit payload and echo formats (node.go): sid, seq, fin,
	// then key, reply tunnel and chunk blobs; the echo drops key and
	// tunnel.
	rtEnc := f.rt.Encode()
	w := wire.NewWriter(32 + len(rtEnc) + chunk)
	w.Uint64(1)
	w.Uint32(0)
	w.Byte(0)
	w.Blob(f.key[:])
	w.Blob(rtEnc)
	w.Blob(payload)
	f.req = w.Bytes()
	e := wire.NewWriter(16 + chunk)
	e.Uint64(1)
	e.Uint32(0)
	e.Byte(0)
	e.Blob(payload)
	f.echoPlain = e.Bytes()
	if f.env, err = core.BuildForward(f.fw, f.fwAddrs, f.dest, f.req, f.stream); err != nil {
		return nil, err
	}
	return f, nil
}

// layerProbes times every layer at the workload's chunk size and returns
// the metrics by name. The first error any probe hits is returned.
func layerProbes(seed uint64, chunk int) (map[string]float64, error) {
	m := make(map[string]float64)
	f, err := newFixture(seed, chunk, []transport.Addr{1, 2, 3})
	if err != nil {
		return nil, err
	}
	var probeErr error
	fail := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}

	// procnode codec and wire framing, on the forward envelope a relay sees.
	var codec procnode.Codec
	kind, encoded, err := codec.Encode(f.env)
	if err != nil {
		return nil, err
	}
	m["procnode.encode_ns"], _ = probe(fastBatches, fastPer, nil, func(int) {
		_, _, err := codec.Encode(f.env)
		fail(err)
	})
	m["procnode.decode_ns"], m["procnode.decode_allocs"] = probe(fastBatches, fastPer, nil, func(int) {
		_, err := codec.Decode(kind, encoded)
		fail(err)
	})
	body := make([]byte, 16+len(encoded)) // the transport's src and dst precede the codec payload
	copy(body[16:], encoded)
	frame := wire.AppendFrame(nil, kind, body)
	m["wire.append_frame_ns"], _ = probe(fastBatches, fastPer, nil, func(int) {
		frame = wire.AppendFrame(nil, kind, body)
	})
	m["wire.parse_frame_ns"], _ = probe(fastBatches, fastPer, nil, func(int) {
		_, _, _, err := wire.ParseFrame(frame)
		fail(err)
	})

	// core: build both onions, then peel them the way the hops do, on
	// owned copies. A peel figure is the chain's time over its layers.
	m["core.build_forward_ns"], _ = probe(fastBatches, fastPer, nil, func(int) {
		_, err := core.BuildForward(f.fw, f.fwAddrs, f.dest, f.req, f.stream)
		fail(err)
	})
	m["core.build_reply_ns"], _ = probe(fastBatches, fastPer, nil, func(int) {
		_, err := core.BuildReply(f.rp, f.rpAddrs, f.bid, f.stream)
		fail(err)
	})
	copies := make([][]byte, fastPer)
	refill := func(src []byte) func() {
		return func() {
			for i := range copies {
				copies[i] = append(copies[i][:0], src...)
			}
		}
	}
	ns, _ := probe(fastBatches, fastPer, refill(f.env.Sealed), func(i int) {
		sealed := copies[i]
		for _, hop := range f.fw.Hops {
			layer, err := core.OpenForwardLayerInPlace(hop.Anchor, sealed)
			if err != nil {
				fail(err)
				return
			}
			sealed = layer.Inner
		}
	})
	m["core.peel_forward_ns"] = ns / forwardHops
	ns, _ = probe(fastBatches, fastPer, refill(f.rt.Onion), func(i int) {
		onion := copies[i]
		for _, hop := range f.rp.Hops {
			_, _, rest, err := core.OpenReplyLayerInPlace(hop.Anchor, onion)
			if err != nil {
				fail(err)
				return
			}
			onion = rest
		}
	})
	m["core.peel_reply_ns"] = ns / replyHops

	// crypt: the allocating Seal/Open of the responder and initiator, and
	// the cached-schedule Sealer for comparison.
	sealed, err := crypt.Seal(f.key, rand.Reader, f.echoPlain)
	if err != nil {
		return nil, err
	}
	m["crypt.seal_ns"], m["crypt.seal_allocs"] = probe(fastBatches, fastPer, nil, func(int) {
		_, err := crypt.Seal(f.key, rand.Reader, f.echoPlain)
		fail(err)
	})
	m["crypt.open_ns"], _ = probe(fastBatches, fastPer, nil, func(int) {
		_, err := crypt.Open(f.key, sealed)
		fail(err)
	})
	sealer := crypt.NewSealer(f.key)
	dst := make([]byte, 0, len(f.echoPlain)+crypt.Overhead)
	ns, _ = probe(fastBatches, fastPer, nil, func(int) {
		_, err := sealer.SealTo(dst, rand.Reader, f.echoPlain)
		fail(err)
	})
	m["crypt.sealer_mb_s"] = float64(len(f.echoPlain)) / ns * 1e3

	m["tha.generate_ns"], _ = probe(fastBatches, fastPer, nil, func(int) {
		_, err := f.gen.Generate(rand.Reader)
		fail(err)
	})

	// tcptransport: one hop at the data frame's size and at a control
	// frame's.
	if m["tcptransport.hop_us"], m["tcptransport.hop_allocs"], err = hopProbe(f.env); err != nil {
		return nil, err
	}
	if m["tcptransport.hop_ctl_us"], _, err = hopProbe(&procnode.AnchorMsg{Anchor: f.fw.Hops[0].Anchor}); err != nil {
		return nil, err
	}
	if m["procnode.deliver_forward_ns"], err = deliverProbe(seed, chunk); err != nil {
		return nil, err
	}
	if err := boardProbe(m); err != nil {
		return nil, err
	}

	// The simulator's layers.
	var world *experiments.World
	ns, _ = probe(slowBatches, 1, nil, func(int) {
		w, err := experiments.BuildWorld(simNodes, 3, f.stream.Split("world"))
		fail(err)
		world = w
	})
	m["pastry.build_world_ms"] = ns / 1e6
	if probeErr != nil {
		return nil, probeErr
	}
	from := world.OV.RandomLive(f.stream).Ref().Addr
	keys := make([]id.ID, fastPer)
	m["pastry.lookup_ns"], _ = probe(fastBatches, fastPer,
		func() {
			for i := range keys {
				f.stream.Bytes(keys[i][:])
			}
		},
		func(i int) {
			_, _, err := world.OV.Lookup(from, keys[i])
			fail(err)
		})
	var deployed int
	ns, _ = probe(slowBatches, 1, nil, func(int) {
		deployed++
		_, err := experiments.DeployTunnels(world, simSetupTunnels, simTunnelLength, f.stream.SplitN("deploy", deployed))
		fail(err)
	})
	m["experiments.deploy_tunnels_ms"] = ns / 1e6

	// simnet: 10 batches of 10^4 events, scheduled then run.
	const events = 10_000
	k := simnet.NewKernel()
	nop := func() {}
	ns, _ = probe(10, 1, nil, func(int) {
		for e := 0; e < events; e++ {
			k.Schedule(simnet.Time(time.Millisecond)*simnet.Time(1+e*e%4096), nop)
		}
		fail(k.Run())
	})
	m["simnet.event_ns"] = ns / events

	// The simulator's own outputs for this seed: deterministic, so they
	// repeat exactly; a change here is a change of behaviour, not speed.
	sim, err := simOp(seed)
	if err != nil {
		return nil, err
	}
	m["experiments.sim_goodput_mbps"] = sim.goodput
	m["experiments.sim_fct_p50_s"] = sim.fctP50
	m["experiments.sim_retx_ratio"] = sim.retx
	return m, probeErr
}

// bareTransport is a tcptransport with the procnode codec and no node.
func bareTransport() (*tcptransport.Transport, string, error) {
	tr := tcptransport.New(tcptransport.Config{Codec: procnode.Codec{}})
	hostport, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		tr.Close()
		return nil, "", err
	}
	return tr, hostport, nil
}

// hopProbe measures one transport hop: two bare transports, B echoing
// every message back to A, the Send-to-Deliver round trip halved.
func hopProbe(msg transport.Message) (us, allocs float64, err error) {
	const addrA, addrB = 1, 2
	a, hostA, err := bareTransport()
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, hostB, err := bareTransport()
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	a.SetPeer(addrB, hostB)
	b.SetPeer(addrA, hostA)
	back := make(chan struct{}, 1)
	a.Attach(addrA, transport.HandlerFunc(func(transport.Addr, transport.Message) { back <- struct{}{} }))
	b.Attach(addrB, transport.HandlerFunc(func(from transport.Addr, m transport.Message) { b.Send(addrB, from, m) }))
	roundTrip := func(int) {
		a.Send(addrA, addrB, msg)
		<-back
	}
	for i := 0; i < 20; i++ { // dial both directions, warm the path
		roundTrip(i)
	}
	ns, mallocs := probe(fastBatches, fastPer, nil, roundTrip)
	if st := a.Stats(); st.Dropped > 0 {
		return 0, 0, fmt.Errorf("hop probe dropped %d messages", st.Dropped)
	}
	return ns / 2 / 1e3, mallocs / 2, nil
}

// deliverProbe times Node.Deliver of a forward envelope on a relay that
// holds the anchor: peel one layer, pad, hand the inner envelope to the
// transport. Nothing is ever sent to the relay's transport, so this
// goroutine is the only caller of Deliver, as the dispatch loop would be.
func deliverProbe(seed uint64, chunk int) (float64, error) {
	const relayAddr, sinkAddr = 1, 2
	relayTr, relayHost, err := bareTransport()
	if err != nil {
		return 0, err
	}
	defer relayTr.Close()
	sinkTr, sinkHost, err := bareTransport()
	if err != nil {
		return 0, err
	}
	defer sinkTr.Close()
	var sunk atomic.Int64
	sinkTr.Attach(sinkAddr, transport.HandlerFunc(func(transport.Addr, transport.Message) { sunk.Add(1) }))
	relay := procnode.New(relayTr, relayAddr, nil, nil)
	relay.SetPeers(map[transport.Addr]string{relayAddr: relayHost, sinkAddr: sinkHost})

	// The relay is hop 0 and the hint for hop 1 names the sink.
	f, err := newFixture(seed, chunk, []transport.Addr{relayAddr, sinkAddr, sinkAddr})
	if err != nil {
		return 0, err
	}
	sent := int64(1) // the anchor install is acked to the sink
	relay.Deliver(sinkAddr, &procnode.AnchorMsg{Anchor: f.fw.Hops[0].Anchor})
	envs := make([]*core.Envelope, fastPer)
	drain := func() {
		for deadline := time.Now().Add(time.Second); sunk.Load() < sent && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	ns, _ := probe(fastBatches, fastPer,
		func() {
			drain() // keep the relay's send queue from filling across batches
			for i := range envs {
				envs[i] = &core.Envelope{HopID: f.env.HopID, Hint: f.env.Hint, Sealed: append([]byte(nil), f.env.Sealed...)}
			}
		},
		func(i int) {
			relay.Deliver(sinkAddr, envs[i])
			sent++
		})
	drain()
	if got := sunk.Load(); got != sent {
		return 0, fmt.Errorf("deliver probe: sink received %d of %d relayed messages", got, sent)
	}
	return ns, nil
}

// boardProbe times a member's two board calls against a live board:
// Dial+Register of a new member, and WaitForPeers once quorum holds.
func boardProbe(m map[string]float64) error {
	b := board.New(board.Config{})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	var probeErr error
	ns, _ := probe(slowBatches, 1, nil, func(int) {
		cli, err := board.Dial(addr)
		if err != nil {
			probeErr = err
			return
		}
		defer cli.Close()
		if _, _, err := cli.Register("127.0.0.1:1"); err != nil {
			probeErr = err
		}
	})
	m["board.register_us"] = ns / 1e3
	if probeErr != nil {
		return probeErr
	}
	cli, err := board.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	if _, _, err := cli.Register("127.0.0.1:1"); err != nil {
		return err
	}
	ns, _ = probe(fastBatches, fastPer, nil, func(int) {
		if _, err := cli.WaitForPeers(1, time.Second); err != nil {
			probeErr = err
		}
	})
	m["board.wait_quorum_us"] = ns / 1e3
	return probeErr
}

// layerValues assembles a traced run's per-layer metrics: the probes, the
// traced round's counters per op, and the harness's own view, and prints
// the budget that splits op_p50_ms over the layers.
func layerValues(res *runResult, e2e map[string]float64, pooled, perRound []float64) (map[string]float64, error) {
	cfg, tr := res.cfg, res.traced
	m := make(map[string]float64)
	if cfg.probes {
		var err error
		if m, err = layerProbes(cfg.seed, cfg.w.chunk); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	ops := float64(tr.ops)
	m["procnode.peels_per_op"] = tr.node.peels / ops
	m["procnode.retransmits_per_op"] = tr.node.retransmits / ops
	m["procnode.park_retries_per_op"] = tr.node.parkRetries / ops
	m["procnode.anchors_held_per_op"] = tr.node.anchorsHeld / ops
	m["tcptransport.frames_per_op"] = float64(tr.net.frames) / ops
	m["tcptransport.wire_bytes_per_op"] = float64(tr.net.bytes) / ops
	m["tcptransport.drops_per_op"] = float64(tr.net.dropped) / ops
	m["tcptransport.dials_per_setup"] = float64(tr.dials)
	if !cfg.w.sim() {
		m["wire.overhead_ratio"] = m["tcptransport.wire_bytes_per_op"] / float64(cfg.w.payload)
	}
	m["client.op_p90_ms"] = overRounds(res.rounds, 0, func(r roundStats) float64 { return r.latencyQuantile(0.9) })
	m["client.op_p99_ms"] = quantile(pooled, 0.99)
	m["client.op_max_ms"] = quantile(pooled, 1)
	m["client.round_spread"] = spread(perRound)
	m["client.trace_overhead"] = 1 - tr.opsPerS()/e2e["ops_per_s"]

	budget := opBudget(cfg.w, m)
	p50us := e2e["op_p50_ms"] * 1e3
	attributed := 0.0
	fmt.Printf("  budget of op_p50_ms = %.1f us (count per op x layer median):\n", p50us)
	for _, row := range budget {
		attributed += row.us
		fmt.Printf("    %-28s %10.1f us  %5.1f%%  %s\n", row.layer, row.us, 100*row.us/p50us, row.note)
	}
	m["client.unattributed_us"] = p50us - attributed
	rest := "goroutine hand-off, queue and dispatch-loop wait, loopback kernel"
	if cfg.w.sim() {
		rest = "the stream simulation itself: core.Stream, simnet events, onion crypto (not separable from outside)"
	}
	fmt.Printf("    %-28s %10.1f us  %5.1f%%  %s\n",
		"client.unattributed_us", m["client.unattributed_us"], 100*m["client.unattributed_us"]/p50us, rest)
	fmt.Printf("  tracing overhead: traced round %.2f ops/s against untraced median %.2f (%.1f%%); setup self time %.1f us of %.1f us\n",
		tr.opsPerS(), e2e["ops_per_s"], 100*m["client.trace_overhead"],
		float64(res.rec.selfNs(1))/1e3, float64(res.rec.spans[0].EndNs-res.rec.spans[0].StartNs)/1e3)
	for _, name := range sortedKeys(m) {
		fmt.Printf("  %-32s %14.6g\n", name, m[name])
	}
	return m, nil
}

type budgetRow struct {
	layer string
	us    float64
	note  string
}

// opBudget splits one op's time over the layers it crosses: how many
// times the op calls each layer times that layer's median. The rows are
// disjoint, so with client.unattributed_us they sum to op_p50_ms. A
// transport hop includes its framing and codec work, shown by the notes.
func opBudget(w workload, m map[string]float64) []budgetRow {
	if w.sim() {
		return []budgetRow{
			{"pastry (world build)", m["pastry.build_world_ms"] * 1e3, "1 x build_world_ms"},
			{"experiments (tunnel deploy)", m["experiments.deploy_tunnels_ms"] * 1e3, "1 x deploy_tunnels_ms (64 tunnels, as the op's 16 clients x 4)"},
		}
	}
	c := float64(w.chunks())
	const anchors = forwardHops + replyHops
	dataFrames := c * (forwardHops + 1 + replyHops + 1) // initiator to responder, and back
	ctlFrames := float64(2 * anchors)
	codecUs := (m["procnode.encode_ns"] + m["procnode.decode_ns"] + m["wire.append_frame_ns"] + m["wire.parse_frame_ns"]) / 1e3
	return []budgetRow{
		{"tha (mint anchors)", anchors * m["tha.generate_ns"] / 1e3, fmt.Sprintf("%d x generate_ns", anchors)},
		{"core (build onions)", (c*m["core.build_forward_ns"] + m["core.build_reply_ns"]) / 1e3, fmt.Sprintf("%.0f x build_forward_ns + build_reply_ns", c)},
		{"core (peel at hops)", c * (forwardHops*m["core.peel_forward_ns"] + replyHops*m["core.peel_reply_ns"]) / 1e3, fmt.Sprintf("%.0f x (3 peel_forward_ns + 2 peel_reply_ns)", c)},
		{"crypt (echo seal and open)", c * (m["crypt.seal_ns"] + m["crypt.open_ns"]) / 1e3, fmt.Sprintf("%.0f x (seal_ns + open_ns)", c)},
		{"tcptransport (data frames)", dataFrames * m["tcptransport.hop_us"], fmt.Sprintf("%.0f x hop_us, of which wire+codec %.1f us each", dataFrames, codecUs)},
		{"tcptransport (control frames)", ctlFrames * m["tcptransport.hop_ctl_us"], fmt.Sprintf("%.0f x hop_ctl_us", ctlFrames)},
	}
}

// sortedKeys is map iteration in a stable order for printing.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
