package core

import (
	"bytes"
	"testing"
	"time"

	"tap/internal/id"
	"tap/internal/simnet"
	"tap/internal/tha"
)

// netSys extends sys with a simulated network and engine.
type netSys struct {
	*sys
	kernel *simnet.Kernel
	net    *simnet.Network
	eng    *NetEngine
}

func newNetSys(t testing.TB, n, k int, seed uint64) *netSys {
	t.Helper()
	s := newSys(t, n, k, seed)
	kernel := simnet.NewKernel()
	kernel.MaxSteps = 10_000_000
	net := simnet.NewNetwork(kernel, simnet.DefaultLinkModel(seed), s.ov.NumAddrs())
	eng := NewNetEngine(s.svc, net)
	return &netSys{sys: s, kernel: kernel, net: net, eng: eng}
}

// openFlow puts a fire-and-forget flow in the engine's table without
// sending anything, for tests that drive finish and dispatch by hand.
func (ns *netSys) openFlow(done func(Outcome)) uint64 {
	e := ns.eng
	e.nextFlow++
	e.flows[e.nextFlow] = done
	return e.nextFlow
}

const fileSize = 250_000 // 2 Mb, the paper's transfer size

func TestNetOvertTransfer(t *testing.T) {
	ns := newNetSys(t, 200, 3, 1)
	from := ns.ov.RandomLive(ns.root.Split("src"))
	dest := id.HashString("file")
	var out Outcome
	gotOut := false
	ns.eng.SendOvert(from.Ref().Addr, dest, fileSize, func(o Outcome) { out = o; gotOut = true })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotOut || !out.Delivered {
		t.Fatalf("overt transfer not delivered: %+v", out)
	}
	// Store-and-forward of 250 KB at 1.5 Mb/s is ≥ 1.33 s per hop.
	perHop := ns.net.Link.Serialization(fileSize)
	if out.At < perHop {
		t.Fatalf("transfer finished in %v, faster than one hop serialization %v", out.At, perHop)
	}
	if out.NetHops < 1 || out.NetHops > 10 {
		t.Fatalf("overt hops = %d", out.NetHops)
	}
}

func TestNetOvertToSelfInstant(t *testing.T) {
	ns := newNetSys(t, 100, 3, 2)
	from := ns.ov.RandomLive(ns.root.Split("src"))
	var out Outcome
	ns.eng.SendOvert(from.Ref().Addr, from.ID(), fileSize, func(o Outcome) { out = o })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !out.Delivered || out.NetHops != 0 || out.At != 0 {
		t.Fatalf("self transfer should be local and instant: %+v", out)
	}
}

func TestNetTunnelBasicVsOptVsOvert(t *testing.T) {
	// The Figure 6 ordering on a single transfer: basic > opt > overt
	// is not guaranteed per-sample (latencies are random), but hops are:
	// basic strictly traverses more network hops than opt.
	ns := newNetSys(t, 400, 3, 3)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(5)
	if err != nil {
		t.Fatal(err)
	}
	dest := id.HashString("file")
	payload := make([]byte, fileSize)

	// Flows run sequentially on one kernel, so measure each as a duration
	// from its own start instant.
	runFlow := func(send func(done func(Outcome))) (Outcome, time.Duration) {
		start := ns.kernel.Now()
		var out Outcome
		send(func(o Outcome) { out = o })
		if err := ns.kernel.Run(); err != nil {
			t.Fatal(err)
		}
		return out, out.At - start
	}

	basicEnv, err := BuildForward(tun, nil, dest, payload, ns.root.Split("b1"))
	if err != nil {
		t.Fatal(err)
	}
	basic, basicDur := runFlow(func(done func(Outcome)) {
		ns.eng.SendForward(in.Node().Ref().Addr, basicEnv, done)
	})
	if !basic.Delivered {
		t.Fatalf("basic transfer failed: %+v", basic)
	}

	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	optEnv, err := BuildForwardHinted(tun, dest, payload, ns.root.Split("b2"))
	if err != nil {
		t.Fatal(err)
	}
	opt, optDur := runFlow(func(done func(Outcome)) {
		ns.eng.SendForward(in.Node().Ref().Addr, optEnv, done)
	})
	if !opt.Delivered {
		t.Fatalf("opt transfer failed: %+v", opt)
	}

	overt, overtDur := runFlow(func(done func(Outcome)) {
		ns.eng.SendOvert(in.Node().Ref().Addr, dest, fileSize, done)
	})
	if !overt.Delivered {
		t.Fatalf("overt failed")
	}

	if opt.NetHops >= basic.NetHops {
		t.Fatalf("opt hops %d not below basic hops %d", opt.NetHops, basic.NetHops)
	}
	if overt.NetHops > opt.NetHops {
		t.Fatalf("overt hops %d above opt hops %d", overt.NetHops, opt.NetHops)
	}
	// With 5 tunnel hops the basic mode must take noticeably longer than
	// overt in time as well — the Figure 6 headline.
	if basicDur <= overtDur {
		t.Fatalf("basic (%v) not slower than overt (%v)", basicDur, overtDur)
	}
	if optDur >= basicDur {
		t.Fatalf("opt (%v) not faster than basic (%v)", optDur, basicDur)
	}
}

func TestNetTunnelSurvivesHopFailureMidFlight(t *testing.T) {
	ns := newNetSys(t, 300, 3, 4)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	env, err := BuildForward(tun, nil, id.HashString("d"), make([]byte, 1000), ns.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	// Kill the tail hop's node shortly after the flow starts; replicas
	// migrate and routing self-heals, so the flow must still complete.
	tail, ok := ns.dir.HopNode(tun.Hops[3].HopID)
	if !ok {
		t.Fatal("no tail hop node")
	}
	ns.kernel.Schedule(50*time.Millisecond, func() {
		if err := ns.ov.Fail(tail.Ref().Addr); err == nil {
			ns.net.Detach(tail.Ref().Addr)
		}
	})
	var out Outcome
	gotOut := false
	ns.eng.SendForward(in.Node().Ref().Addr, env, func(o Outcome) { out = o; gotOut = true })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotOut {
		t.Fatalf("flow vanished (likely dropped at the dead node)")
	}
	if !out.Delivered {
		t.Fatalf("flow failed: %+v", out)
	}
}

func TestNetStaleHintFallsBackInFlight(t *testing.T) {
	ns := newNetSys(t, 300, 3, 5)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	// Make the second hop's hint stale in the §5 sense — the hinted node
	// is alive and reachable but "not the tunnel hop node any more":
	// join k nodes with ids right at the hopid so the hinted node is
	// evicted from the replica set entirely.
	hop := tun.Hops[1].HopID
	staleAddr := tun.Hint(1)
	for i := 0; i < ns.mgr.K(); i++ {
		nid := hop
		nid[id.Size-1] ^= byte(i + 1) // k distinct ids adjacent to the hopid
		if ns.ov.ByID(nid) == nil {
			ns.ov.JoinWithID(nid)
		}
	}
	if ns.dir.Manager().HolderHas(staleAddr, hop) {
		t.Fatalf("test setup: hinted node still holds the anchor")
	}
	env, err := BuildForwardHinted(tun, id.HashString("d"), make([]byte, 1000), ns.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	var out Outcome
	ns.eng.SendForward(in.Node().Ref().Addr, env, func(o Outcome) { out = o })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !out.Delivered {
		t.Fatalf("stale hint broke the flow: %+v", out)
	}
	if ns.eng.HintMiss == 0 {
		t.Fatalf("no hint miss recorded despite stale hint")
	}
}

// TestHintAtSelfCountsAsHit: two consecutive hops anchored on one node
// make the second hop's hint name the node the packet is already at. That
// is the best possible hit, and both engines must count it as one — the
// networked engine used to skip the direct send and book a miss.
func TestHintAtSelfCountsAsHit(t *testing.T) {
	ns := newNetSys(t, 20, 3, 7)
	in := ns.readyInitiator(t, "a", 40)
	owner := func(s tha.Secret) id.ID {
		n, ok := ns.dir.HopNode(s.HopID)
		if !ok {
			t.Fatalf("anchor %s lost", s.HopID.Short())
		}
		return n.ID()
	}
	pool := in.Pool()
	var tun *Tunnel
	for i := 0; i < len(pool) && tun == nil; i++ {
		for j := i + 1; j < len(pool); j++ {
			if owner(pool[i]) == owner(pool[j]) {
				tun = &Tunnel{Hops: []tha.Secret{pool[i], pool[j], pool[(j+1)%len(pool)]}}
				break
			}
		}
	}
	if tun == nil {
		t.Fatal("test setup: 40 anchors on 20 nodes and no two share an owner")
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	env, err := BuildForwardHinted(tun, id.HashString("d"), []byte("x"), ns.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	origin := in.Node().Ref().Addr
	walked, err := ns.svc.DeliverForward(origin, env)
	if err != nil {
		t.Fatal(err)
	}
	var out Outcome
	ns.eng.SendForward(origin, env, func(o Outcome) { out = o })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !out.Delivered {
		t.Fatalf("flow failed: %+v", out)
	}
	if walked.Stats.HintHits != 3 || walked.Stats.HintMisses != 0 {
		t.Fatalf("walker hits/misses = %d/%d, want 3/0", walked.Stats.HintHits, walked.Stats.HintMisses)
	}
	if ns.eng.HintHits != 3 || ns.eng.HintMiss != 0 {
		t.Fatalf("NetEngine hits/misses = %d/%d, the walker's 3/0", ns.eng.HintHits, ns.eng.HintMiss)
	}
}

func TestNetReplyRoundTrip(t *testing.T) {
	ns := newNetSys(t, 300, 3, 6)
	in := ns.readyInitiator(t, "a", 20)
	rep, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	bid := in.NewBid()
	rt, err := BuildReply(rep, nil, bid, ns.root.Split("r"))
	if err != nil {
		t.Fatal(err)
	}
	responder := ns.ov.RandomLive(ns.root.Split("resp"))
	var out Outcome
	ns.eng.SendReply(responder.Ref().Addr, &ReplyEnvelope{
		Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: make([]byte, 5000),
	}, func(o Outcome) { out = o })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !out.Delivered {
		t.Fatalf("reply failed: %+v", out)
	}
}

// TestNetSendReplyWarmAllocatesNothing: a reply flow's packet, and the
// private copy of its onion, come from the engine's freelist and arena and
// go back when the flow ends, so on a warm engine a reply sent and run home
// allocates nothing.
func TestNetSendReplyWarmAllocatesNothing(t *testing.T) {
	ns := newNetSys(t, 300, 3, 6)
	in := ns.readyInitiator(t, "a", 20)
	rep, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := BuildReply(rep, nil, in.NewBid(), ns.root.Split("r"))
	if err != nil {
		t.Fatal(err)
	}
	responder := ns.ov.RandomLive(ns.root.Split("resp")).Ref().Addr
	renv := &ReplyEnvelope{Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: make([]byte, 64)}
	delivered := 0
	done := func(o Outcome) {
		if o.Delivered {
			delivered++
		}
	}
	send := func() {
		ns.eng.SendReply(responder, renv, done)
		if err := ns.kernel.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm: the packet chunk, the arena block, the hops' key schedules
	const runs = 100
	if got := testing.AllocsPerRun(runs, send); got != 0 {
		t.Errorf("%.1f allocations per reply on a warm engine, want 0", got)
	}
	if delivered != runs+2 {
		t.Errorf("%d of %d replies delivered", delivered, runs+2)
	}
}

func TestNetFlowFailsWhenAnchorLost(t *testing.T) {
	ns := newNetSys(t, 300, 3, 7)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	ns.mgr.BeginBatch()
	for _, addr := range ns.dir.ReplicaAddrs(tun.Hops[1].HopID) {
		if err := ns.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
		ns.net.Detach(addr)
	}
	ns.mgr.EndBatch()
	env, err := BuildForward(tun, nil, id.HashString("d"), make([]byte, 100), ns.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	var out Outcome
	gotOut := false
	ns.eng.SendForward(in.Node().Ref().Addr, env, func(o Outcome) { out = o; gotOut = true })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotOut {
		t.Fatalf("no outcome for doomed flow")
	}
	if out.Delivered {
		t.Fatalf("flow delivered despite lost anchor")
	}
	if ns.eng.FailFlows != 1 {
		t.Fatalf("FailFlows = %d", ns.eng.FailFlows)
	}
}

func TestNetDeterministicTiming(t *testing.T) {
	run := func() simnet.Time {
		ns := newNetSys(t, 200, 3, 8)
		in := ns.readyInitiator(t, "a", 10)
		tun, err := in.FormTunnel(3)
		if err != nil {
			t.Fatal(err)
		}
		env, err := BuildForward(tun, nil, id.HashString("d"), make([]byte, 10000), ns.root.Split("b"))
		if err != nil {
			t.Fatal(err)
		}
		var out Outcome
		ns.eng.SendForward(in.Node().Ref().Addr, env, func(o Outcome) { out = o })
		if err := ns.kernel.Run(); err != nil {
			t.Fatal(err)
		}
		return out.At
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("timing not deterministic: %v vs %v", a, b)
	}
}

// TestNetSendLeavesEnvelopeIntact is the NetEngine twin of
// TestDeliverLeavesEnvelopeIntact. The hops peel the bytes they are handed
// where they lie, so the send entries hand them a private copy: the same
// envelope sent twice is delivered twice, and the caller's envelope never
// changes.
func TestNetSendLeavesEnvelopeIntact(t *testing.T) {
	ns := newNetSys(t, 150, 3, 85)
	in := ns.readyInitiator(t, "borrow", 30)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	env, err := BuildForward(tun, nil, id.HashString("borrow-dest"), []byte("send me twice"), ns.root.Split("msg"))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := BuildReply(tun, nil, in.NewBid(), ns.root.Split("reply"))
	if err != nil {
		t.Fatal(err)
	}
	renv := &ReplyEnvelope{Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: []byte("reply data")}
	wantEnv, wantSealed := *env, bytes.Clone(env.Sealed)
	wantRenv, wantOnion, wantData := *renv, bytes.Clone(renv.Onion), bytes.Clone(renv.Data)

	origin := in.Node().Ref().Addr
	responder := ns.ov.RandomLive(ns.root.Split("responder")).Ref().Addr
	sendBoth := func(round string) {
		t.Helper()
		for _, dir := range []struct {
			name string
			send func(done func(Outcome))
		}{
			{"forward", func(done func(Outcome)) { ns.eng.SendForward(origin, env, done) }},
			{"reply", func(done func(Outcome)) { ns.eng.SendReply(responder, renv, done) }},
		} {
			var out Outcome
			dir.send(func(o Outcome) { out = o })
			if err := ns.kernel.Run(); err != nil {
				t.Fatal(err)
			}
			if !out.Delivered || out.Attempts != 1 {
				t.Fatalf("%s, %s: outcome %+v, want one delivered attempt", round, dir.name, out)
			}
			if env.HopID != wantEnv.HopID || env.Hint != wantEnv.Hint || env.Pad != wantEnv.Pad || !bytes.Equal(env.Sealed, wantSealed) {
				t.Fatalf("%s, %s: the engine changed the caller's envelope", round, dir.name)
			}
			if renv.Target != wantRenv.Target || renv.Hint != wantRenv.Hint || renv.Pad != wantRenv.Pad ||
				!bytes.Equal(renv.Onion, wantOnion) || !bytes.Equal(renv.Data, wantData) {
				t.Fatalf("%s, %s: the engine changed the caller's reply envelope", round, dir.name)
			}
		}
	}
	sendBoth("first send")
	sendBoth("same envelope again")
}

func TestNetFinishIgnoresDuplicateLatePackets(t *testing.T) {
	// Regression: a flow whose callback already fired could keep bumping
	// FailFlows on duplicate/late packet deaths.
	ns := newNetSys(t, 100, 3, 21)
	fired := 0
	p := &packet{flow: ns.openFlow(func(Outcome) { fired++ })}
	ns.eng.finish(0, p, false, "first death")
	ns.eng.finish(0, p, false, "late duplicate")
	ns.eng.finish(0, p, true, "")
	if fired != 1 {
		t.Fatalf("callback fired %d times", fired)
	}
	if ns.eng.FailFlows != 1 {
		t.Fatalf("FailFlows = %d, want 1", ns.eng.FailFlows)
	}
}

// TestDropHintDropsOnlyTarget: dropHint forgets exactly the missed hop's
// address; the rest of the tunnel keeps serving hints, and a tunnel never
// refreshed is safe to drop from.
func TestDropHintDropsOnlyTarget(t *testing.T) {
	ns := newNetSys(t, 150, 3, 31)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	tun.dropHint(1) // nothing remembered yet: a no-op
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	for i, h := range tun.Hops {
		if tun.Hint(i) == simnet.NoAddr {
			t.Fatalf("hop %s not hinted after RefreshHints", h.HopID.Short())
		}
	}
	tun.dropHint(1)
	tun.dropHint(1) // repeated: a no-op
	if got := tun.Hint(1); got != simnet.NoAddr {
		t.Fatalf("dropped hop still hinted at %d", got)
	}
	for _, i := range []int{0, 2} {
		if tun.Hint(i) == simnet.NoAddr {
			t.Fatalf("dropHint(1) also dropped hop %d", i)
		}
	}
}

// TestDirectSendMissMarksStaleHint: a hinted packet landing on a node
// that no longer holds the hop anchor must count a miss, record the
// (target, address) pair as stale, and make later dispatches skip the
// dead-end hint without a connection attempt.
func TestDirectSendMissMarksStaleHint(t *testing.T) {
	ns := newNetSys(t, 150, 3, 32)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	hop := tun.Hops[0].HopID
	// A live node that does not hold hop's anchor: the stale hint target.
	wrong := ns.ov.RandomLive(ns.root.Split("wrong"))
	for ns.mgr.HolderHas(wrong.Ref().Addr, hop) {
		wrong = ns.ov.RandomLive(ns.root.Split("wrong"))
	}
	env, err := BuildForward(tun, nil, id.HashString("dest"), []byte("payload"), ns.root.Split("build"))
	if err != nil {
		t.Fatal(err)
	}
	p := &packet{kind: kindForward, flow: ns.openFlow(nil), target: hop, env: *env, direct: true}
	ns.eng.deliver(wrong.Ref().Addr, p)
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if ns.eng.HintMiss == 0 {
		t.Fatalf("direct-send miss not counted (HintMiss=0)")
	}
	if ns.eng.StaleHints != 1 {
		t.Fatalf("StaleHints = %d, want 1", ns.eng.StaleHints)
	}
	if !ns.eng.hintStale(hop, wrong.Ref().Addr) {
		t.Fatal("missed (target, addr) pair not in the stale set")
	}
	// A later dispatch with the same hint skips the direct attempt: no
	// p.direct packet is sent at the stale address again.
	misses := ns.eng.HintMiss
	p2 := &packet{kind: kindForward, flow: ns.openFlow(nil), target: hop, env: *env}
	ns.eng.dispatch(wrong.Ref().Addr, p2, wrong.Ref().Addr)
	if p2.direct {
		t.Fatal("dispatch retried a hint already known stale")
	}
	if ns.eng.HintMiss != misses+1 {
		t.Fatalf("skipped stale hint not counted as a miss: %d -> %d", misses, ns.eng.HintMiss)
	}
}

// attachCounter is a network that counts attachments and keeps none, so
// NewNetEngine can attach one world again and again.
type attachCounter struct {
	*simnet.Network
	attached int
}

func (a *attachCounter) Attach(simnet.Addr, simnet.Handler) { a.attached++ }

// TestNewNetEngineAllocsIndependentOfN: attaching every node of a world
// takes one handler array, not an allocation per node, so the engine's
// set-up allocates as much over 1 000 nodes as over a handful.
func TestNewNetEngineAllocsIndependentOfN(t *testing.T) {
	s := newSys(t, 1000, 3, 43)
	live := len(s.ov.LiveRefs())
	net := &attachCounter{Network: simnet.NewNetwork(simnet.NewKernel(), simnet.DefaultLinkModel(43), s.ov.NumAddrs())}
	prevJoin := s.ov.OnJoin
	NewNetEngine(s.svc, net)
	s.ov.OnJoin = prevJoin
	if net.attached != live {
		t.Fatalf("NewNetEngine attached %d handlers for %d live nodes", net.attached, live)
	}
	allocs := testing.AllocsPerRun(10, func() {
		NewNetEngine(s.svc, net)
		s.ov.OnJoin = prevJoin
	})
	t.Logf("NewNetEngine over %d live nodes: %.0f allocations", live, allocs)
	if allocs > 32 {
		t.Fatalf("NewNetEngine over %d live nodes makes %.0f allocations, want a count independent of the world's size (≤ 32)", live, allocs)
	}
}

// TestEngineStorageGrowsInChunks: a tunnel stream putting N segments in
// flight at once takes N packets and N onions the engine has never held,
// and the engine makes them a chunk at a time — packets in arrays, onion
// storage carved from its arena — so the burst costs about N/chunk
// allocations, not 2N.
func TestEngineStorageGrowsInChunks(t *testing.T) {
	const n = 512
	ns := newNetSys(t, 100, 3, 44)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	origin := in.Node().Ref().Addr
	dest := id.HashString("burst")
	cfg := StreamConfig{Window: n}.withDefaults()
	data := patternData(n * cfg.SegSize)
	// Nothing runs the kernel, so no segment ever comes back: every run
	// draws all of its storage fresh.
	allocs := testing.AllocsPerRun(2, func() {
		s := ns.eng.OpenTunnelStream(origin, tun, dest, cfg)
		s.WriteAll(data)
		if s.sndNxt != n {
			t.Fatalf("window took %d of %d segments", s.sndNxt, n)
		}
	})
	t.Logf("%d segments put in flight: %.0f allocations", n, allocs)
	if allocs > n/8 {
		t.Fatalf("%d segments put in flight make %.0f allocations, want ≤ %d: packet or onion storage grows one object at a time", n, allocs, n/8)
	}
}
