package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/onionroute"
	"tap/internal/past"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
)

// sys bundles a full TAP stack for tests.
type sys struct {
	ov   *pastry.Overlay
	mgr  *past.Manager
	dir  *tha.Directory
	svc  *Service
	root *rng.Stream
}

func newSys(t testing.TB, n, k int, seed uint64) *sys {
	t.Helper()
	root := rng.New(seed)
	ov, err := pastry.Build(pastry.DefaultConfig(), n, root.Split("overlay"))
	if err != nil {
		t.Fatal(err)
	}
	mgr := past.NewManager(ov, k)
	dir := tha.NewDirectory(ov, mgr)
	svc := NewService(ov, dir, root.Split("svc"))
	return &sys{ov: ov, mgr: mgr, dir: dir, svc: svc, root: root}
}

func (s *sys) newInitiator(t testing.TB, label string) *Initiator {
	t.Helper()
	node := s.ov.RandomLive(s.root.Split("pick-" + label))
	in, err := NewInitiator(s.svc, node, s.root.Split("init-"+label))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func (s *sys) readyInitiator(t testing.TB, label string, anchors int) *Initiator {
	t.Helper()
	in := s.newInitiator(t, label)
	if err := in.DeployDirect(anchors); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestFormRespectsLengthAndScatter(t *testing.T) {
	s := newSys(t, 200, 3, 1)
	in := s.readyInitiator(t, "a", 30)
	tun, err := in.FormTunnel(5)
	if err != nil {
		t.Fatal(err)
	}
	if tun.Length() != 5 {
		t.Fatalf("length %d", tun.Length())
	}
	if div := tha.PrefixDiversity(tun.Hops, 4); div < 3 {
		t.Fatalf("prefix diversity %d suspiciously low for a 30-anchor pool", div)
	}
	ids := tun.HopIDs()
	seen := map[id.ID]bool{}
	for _, h := range ids {
		if seen[h] {
			t.Fatalf("duplicate hop")
		}
		seen[h] = true
	}
}

func TestFormFailsOnTinyPool(t *testing.T) {
	s := newSys(t, 50, 3, 2)
	in := s.readyInitiator(t, "a", 3)
	if _, err := in.FormTunnel(5); err == nil {
		t.Fatalf("tunnel longer than pool accepted")
	}
}

// TestFormAllocsPerTunnel: a warm initiator forms a 3-hop tunnel and
// resolves its hints in one allocation — the tunnel, its link and its
// hints share one object — plus a share of the hop storage it carves a
// pool's length at a time (here one block per four tunnels, which
// AllocsPerRun's whole-number average leaves out). A carved tunnel's hops
// are its own: forming the next one leaves them as they were.
func TestFormAllocsPerTunnel(t *testing.T) {
	s := newSys(t, 200, 3, 1)
	in := s.readyInitiator(t, "a", 12)
	var prev *Tunnel
	var prevIDs [3]id.ID
	form := func() {
		tun, err := in.FormTunnel(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := tun.RefreshHints(s.svc); err != nil {
			t.Fatal(err)
		}
		in.Release(tun)
		if cap(tun.Hops) != 3 {
			t.Fatalf("carved hops have capacity %d, want 3", cap(tun.Hops))
		}
		for i := range prevIDs {
			if prev != nil && prev.Hops[i].HopID != prevIDs[i] {
				t.Fatal("forming a tunnel rewrote the previous tunnel's hops")
			}
			prevIDs[i] = tun.Hops[i].HopID
		}
		prev = tun
	}
	form()
	if allocs := testing.AllocsPerRun(100, form); allocs > 1 {
		t.Fatalf("FormTunnel(3) + RefreshHints: %.0f allocations per tunnel, want ≤ 1", allocs)
	}
}

// TestDeployDirectGrowsPoolOnce: DeployDirect mints straight into the
// pool's spare room, so it grows the pool once for any n, to fit n, and
// not at all when there is room; one append at a time would grow an empty
// pool four times for eight anchors. The directory's stores are warm, and
// each round deletes the anchors the round before deployed, so they do not
// grow; its records and Generate's key-schedule cells come 64 to a chunk.
func TestDeployDirectGrowsPoolOnce(t *testing.T) {
	s := newSys(t, 100, 3, 1)
	in := s.readyInitiator(t, "a", 2000)
	for _, n := range []int{5, 12} {
		in.pool = nil
		if err := in.DeployDirect(n); err != nil {
			t.Fatal(err)
		}
		if len(in.pool) != n || cap(in.pool) != n {
			t.Fatalf("DeployDirect(%d) into an empty pool: len %d cap %d, want %d and %d", n, len(in.pool), cap(in.pool), n, n)
		}
	}
	in.pool = make([]tha.Secret, 0, 12)
	room := &in.pool[:1][0]
	if err := in.DeployDirect(12); err != nil || &in.pool[0] != room {
		t.Fatalf("DeployDirect(12) into a pool with room for 12 moved it (err %v)", err)
	}
	allocs := testing.AllocsPerRun(64, func() {
		for _, sec := range in.pool {
			if err := s.dir.Delete(sec.HopID, sec.PW); err != nil {
				t.Fatal(err)
			}
		}
		in.pool = nil
		if err := in.DeployDirect(8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("DeployDirect(8): %.0f allocations, want ≤ 1 (one pool growth)", allocs)
	}
}

// TestDeployRefusesNegativeCounts: a negative anchor count is an error, not
// a makeslice panic, and deploys nothing.
func TestDeployRefusesNegativeCounts(t *testing.T) {
	s := newSys(t, 50, 3, 2)
	in := s.readyInitiator(t, "a", 3)
	if err := in.DeployDirect(-2); err == nil || !strings.Contains(err.Error(), "-2") {
		t.Fatalf("DeployDirect(-2) = %v, want an error naming -2", err)
	}
	if err := in.Bootstrap(-1, nil, 0); err == nil {
		t.Fatal("Bootstrap(-1) accepted")
	}
	if in.PoolSize() != 3 || s.dir.DeployedCount() != 3 {
		t.Fatalf("pool %d, deployed %d after refused deployments, want 3 and 3", in.PoolSize(), s.dir.DeployedCount())
	}
}

func TestBuildForwardManualPeel(t *testing.T) {
	// Verify the exact Figure 1 structure by peeling layers by hand.
	s := newSys(t, 100, 3, 3)
	in := s.readyInitiator(t, "a", 10)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	dest := id.HashString("file-D")
	payload := []byte("m")
	env, err := BuildForward(tun, nil, dest, payload, s.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	if env.HopID != tun.Hops[0].HopID {
		t.Fatalf("envelope addressed to %s, want first hop", env.HopID.Short())
	}
	l1, err := OpenForwardLayerInPlace(tun.Hops[0].Anchor, bytes.Clone(env.Sealed))
	if err != nil {
		t.Fatal(err)
	}
	if l1.IsExit || l1.Next != tun.Hops[1].HopID {
		t.Fatalf("layer 1 should relay to hop 2")
	}
	l2, err := OpenForwardLayerInPlace(tun.Hops[1].Anchor, l1.Inner)
	if err != nil {
		t.Fatal(err)
	}
	if l2.IsExit || l2.Next != tun.Hops[2].HopID {
		t.Fatalf("layer 2 should relay to hop 3")
	}
	l3, err := OpenForwardLayerInPlace(tun.Hops[2].Anchor, l2.Inner)
	if err != nil {
		t.Fatal(err)
	}
	if !l3.IsExit || l3.Dest != dest || !bytes.Equal(l3.Payload, payload) {
		t.Fatalf("exit layer mismatch")
	}
	// Out-of-order peeling fails.
	if _, err := OpenForwardLayerInPlace(tun.Hops[1].Anchor, bytes.Clone(env.Sealed)); err == nil {
		t.Fatalf("hop 2 opened hop 1's layer")
	}
}

func TestDeliverForwardEndToEnd(t *testing.T) {
	s := newSys(t, 300, 3, 4)
	in := s.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(5)
	if err != nil {
		t.Fatal(err)
	}
	dest := id.HashString("the-file")
	payload := []byte("request body")
	env, err := BuildForward(tun, nil, dest, payload, s.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.svc.DeliverForward(in.Node().Ref().Addr, env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatalf("payload corrupted")
	}
	if res.Dest != dest {
		t.Fatalf("dest mismatch")
	}
	if res.DestNode.ID != s.ov.OwnerOf(dest).ID() {
		t.Fatalf("payload landed on %s, owner is %s", res.DestNode.ID.Short(), s.ov.OwnerOf(dest).ID().Short())
	}
	if len(res.Stats.HopNodes) != 5 {
		t.Fatalf("traversed %d hop nodes", len(res.Stats.HopNodes))
	}
	// Each hop node must be the owner of its hopid.
	for i, h := range tun.Hops {
		if res.Stats.HopNodes[i].ID != s.ov.OwnerOf(h.HopID).ID() {
			t.Fatalf("hop %d served by wrong node", i)
		}
	}
	if res.Stats.OverlayHops < 5 {
		t.Fatalf("overlay hops %d implausibly low", res.Stats.OverlayHops)
	}
}

func TestForwardSurvivesHopNodeFailure(t *testing.T) {
	s := newSys(t, 300, 3, 5)
	in := s.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(5)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the current hop node of every hop, one by one (sequentially, so
	// replicas migrate).
	for _, h := range tun.Hops {
		node, ok := s.dir.HopNode(h.HopID)
		if !ok {
			t.Fatalf("hop missing before failure")
		}
		if err := s.ov.Fail(node.Ref().Addr); err != nil {
			t.Fatal(err)
		}
	}
	env, err := BuildForward(tun, nil, id.HashString("d"), []byte("still works"), s.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.svc.DeliverForward(in.Node().Ref().Addr, env)
	if err != nil {
		t.Fatalf("tunnel did not survive hop-node failures: %v", err)
	}
	if string(res.Payload) != "still works" {
		t.Fatalf("payload corrupted")
	}
}

func TestForwardFailsWhenAnchorLost(t *testing.T) {
	s := newSys(t, 300, 3, 6)
	in := s.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	// Simultaneously kill the entire replica set of hop 2.
	s.mgr.BeginBatch()
	for _, addr := range s.dir.ReplicaAddrs(tun.Hops[2].HopID) {
		if err := s.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
	}
	s.mgr.EndBatch()

	env, err := BuildForward(tun, nil, id.HashString("d"), []byte("x"), s.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.svc.DeliverForward(in.Node().Ref().Addr, env)
	if !errors.Is(err, ErrHopLost) {
		t.Fatalf("err = %v, want ErrHopLost", err)
	}
}

// TestForwardToOwnBidComesBack: a message an initiator sends through its
// own tunnel to one of its bids lands on its own node with the payload
// intact. That loop is the end-to-end self-probe: it needs no cooperating
// responder.
func TestForwardToOwnBidComesBack(t *testing.T) {
	s := newSys(t, 300, 3, 9)
	in := s.readyInitiator(t, "a", 10)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	stream := s.root.Split("probe")
	for i := 0; i < 5; i++ {
		nonce := make([]byte, 32)
		stream.Bytes(nonce)
		env, err := BuildForward(tun, nil, in.NewBid(), nonce, stream)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.svc.DeliverForward(in.Node().Ref().Addr, env)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if res.DestNode.ID != in.Node().ID() {
			t.Fatalf("probe %d landed on %s, want the initiator %s", i, res.DestNode.ID.Short(), in.Node().ID().Short())
		}
		if !bytes.Equal(res.Payload, nonce) {
			t.Fatalf("probe %d: payload corrupted", i)
		}
	}
}

// TestForwardDroppedByMisbehavingHop: a hop node that drops its hop's
// traffic fails the message with ErrDropped; once that node dies, the
// replica that takes the hop over serves the same tunnel again.
func TestForwardDroppedByMisbehavingHop(t *testing.T) {
	s := newSys(t, 300, 3, 10)
	in := s.readyInitiator(t, "a", 10)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	evil, ok := s.dir.HopNode(tun.Hops[2].HopID)
	if !ok {
		t.Fatal("no hop node")
	}
	evilAddr, evilHop := evil.Ref().Addr, tun.Hops[2].HopID
	s.svc.HopFilter = func(addr simnet.Addr, hopID id.ID) bool {
		return addr != evilAddr || hopID != evilHop
	}
	send := func() (*ForwardResult, error) {
		env, err := BuildForward(tun, nil, id.HashString("d"), []byte("x"), s.root.Split("b"))
		if err != nil {
			t.Fatal(err)
		}
		return s.svc.DeliverForward(in.Node().Ref().Addr, env)
	}
	if _, err := send(); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	if err := s.ov.Fail(evilAddr); err != nil {
		t.Fatal(err)
	}
	res, err := send()
	if err != nil {
		t.Fatalf("after the dropper died: %v", err)
	}
	if res.Stats.HopNodes[2].Addr == evilAddr {
		t.Fatal("hop 2 still served by the dead dropper")
	}
}

// TestEveryHopDroppingStopsAtTheFirstHop: in a network where every node
// drops tunnel traffic, a message dies at its tunnel's first hop.
func TestEveryHopDroppingStopsAtTheFirstHop(t *testing.T) {
	s := newSys(t, 200, 3, 11)
	in := s.readyInitiator(t, "a", 12)
	s.svc.HopFilter = func(simnet.Addr, id.ID) bool { return false }
	for i := 0; i < 3; i++ {
		tun, err := in.FormTunnel(3)
		if err != nil {
			t.Fatal(err)
		}
		env, err := BuildForward(tun, nil, in.NewBid(), []byte("x"), s.root.Split("b"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.svc.DeliverForward(in.Node().Ref().Addr, env)
		if !errors.Is(err, ErrDropped) {
			t.Fatalf("tunnel %d: err = %v, want ErrDropped", i, err)
		}
		if !strings.Contains(err.Error(), tun.Hops[0].HopID.Short()) {
			t.Fatalf("tunnel %d: %v does not name the first hop %s", i, err, tun.Hops[0].HopID.Short())
		}
	}
}

// TestSelfProbeCannotSeeAQuietObserver: hop nodes that watch every hop
// they serve but forward faithfully leave the self-probe nothing to see:
// it echoes as on a clean tunnel while they learn every hop. Probing
// catches drops; a quietly, fully leaked tunnel is why refresh stays.
func TestSelfProbeCannotSeeAQuietObserver(t *testing.T) {
	s := newSys(t, 300, 3, 13)
	in := s.readyInitiator(t, "a", 10)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[id.ID]bool{}
	s.svc.HopFilter = func(_ simnet.Addr, hopID id.ID) bool {
		seen[hopID] = true
		return true
	}
	nonce := []byte("probe nonce")
	env, err := BuildForward(tun, nil, in.NewBid(), nonce, s.root.Split("probe"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.svc.DeliverForward(in.Node().Ref().Addr, env)
	if err != nil || res.DestNode.ID != in.Node().ID() || !bytes.Equal(res.Payload, nonce) {
		t.Fatalf("probe through watching hops did not echo: %v", err)
	}
	for i, h := range tun.Hops {
		if !seen[h.HopID] {
			t.Fatalf("hop %d was not observed", i)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	s := newSys(t, 300, 3, 7)
	in := s.readyInitiator(t, "a", 20)
	fwd, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	bid := in.NewBid()
	rt, err := BuildReply(rep, nil, bid, s.root.Split("r"))
	if err != nil {
		t.Fatal(err)
	}
	// Encode/decode as it would travel inside a forward payload.
	rt2, err := DecodeReplyTunnel(rt.Encode())
	if err != nil {
		t.Fatal(err)
	}
	// A responder somewhere sends data back over the reply tunnel.
	responder := s.ov.RandomLive(s.root.Split("resp"))
	data := []byte("the reply payload")
	res, err := s.svc.DeliverReply(responder.Ref().Addr, &ReplyEnvelope{
		Target: rt2.First, Hint: rt2.FirstHint, Onion: rt2.Onion, Data: data,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LandedNode.ID != in.Node().ID() {
		t.Fatalf("reply landed on %s, want initiator %s", res.LandedNode.ID.Short(), in.Node().ID().Short())
	}
	if res.Target != bid {
		t.Fatalf("final target %s, want bid", res.Target.Short())
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("reply data corrupted")
	}
	if len(res.Remainder) != FakeOnionSize {
		t.Fatalf("remainder %d bytes, want fake onion of %d", len(res.Remainder), FakeOnionSize)
	}
	if len(res.Stats.HopNodes) != 3 {
		t.Fatalf("reply traversed %d hops", len(res.Stats.HopNodes))
	}
	_ = fwd
}

func TestReplySurvivesHopFailure(t *testing.T) {
	s := newSys(t, 300, 3, 8)
	in := s.readyInitiator(t, "a", 20)
	rep, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	bid := in.NewBid()
	rt, err := BuildReply(rep, nil, bid, s.root.Split("r"))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range rep.Hops {
		node, ok := s.dir.HopNode(h.HopID)
		if !ok {
			t.Fatal("hop missing")
		}
		if err := s.ov.Fail(node.Ref().Addr); err != nil {
			t.Fatal(err)
		}
	}
	responder := s.ov.RandomLive(s.root.Split("resp"))
	res, err := s.svc.DeliverReply(responder.Ref().Addr, &ReplyEnvelope{
		Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: []byte("d"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LandedNode.ID != in.Node().ID() {
		t.Fatalf("reply lost after hop-node failures")
	}
}

// TestReplyDroppedByMisbehavingHop: the reply walker honors HopFilter as
// the forward walker does: a reply hop node that drops its hop's traffic
// fails the reply with ErrDropped.
func TestReplyDroppedByMisbehavingHop(t *testing.T) {
	s := newSys(t, 300, 3, 12)
	in := s.readyInitiator(t, "a", 20)
	rep, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := BuildReply(rep, nil, in.NewBid(), s.root.Split("r"))
	if err != nil {
		t.Fatal(err)
	}
	evil, ok := s.dir.HopNode(rep.Hops[1].HopID)
	if !ok {
		t.Fatal("hop missing")
	}
	evilAddr, evilHop := evil.Ref().Addr, rep.Hops[1].HopID
	s.svc.HopFilter = func(addr simnet.Addr, hopID id.ID) bool {
		return addr != evilAddr || hopID != evilHop
	}
	responder := s.ov.RandomLive(s.root.Split("resp"))
	_, err = s.svc.DeliverReply(responder.Ref().Addr, &ReplyEnvelope{
		Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: []byte("d"),
	})
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
}

func TestReplyMisroutesWhenAnchorLost(t *testing.T) {
	s := newSys(t, 300, 3, 9)
	in := s.readyInitiator(t, "a", 20)
	rep, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	bid := in.NewBid()
	rt, err := BuildReply(rep, nil, bid, s.root.Split("r"))
	if err != nil {
		t.Fatal(err)
	}
	// Destroy the middle hop's whole replica set simultaneously.
	s.mgr.BeginBatch()
	for _, addr := range s.dir.ReplicaAddrs(rep.Hops[1].HopID) {
		if err := s.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
	}
	s.mgr.EndBatch()
	responder := s.ov.RandomLive(s.root.Split("resp"))
	res, err := s.svc.DeliverReply(responder.Ref().Addr, &ReplyEnvelope{
		Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: []byte("d"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The walk terminates at the owner of the lost hopid, which cannot
	// decrypt anything — and is not the initiator.
	if res.LandedNode.ID == in.Node().ID() {
		t.Fatalf("reply reached initiator despite a lost anchor")
	}
	if len(res.Stats.HopNodes) != 1 {
		t.Fatalf("expected exactly the first hop to process, got %d", len(res.Stats.HopNodes))
	}
}

func TestHintOptimizationReducesHops(t *testing.T) {
	s := newSys(t, 500, 3, 10)
	in := s.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(5)
	if err != nil {
		t.Fatal(err)
	}
	dest := id.HashString("d")
	basicEnv, err := BuildForward(tun, nil, dest, []byte("x"), s.root.Split("b1"))
	if err != nil {
		t.Fatal(err)
	}
	basic, err := s.svc.DeliverForward(in.Node().Ref().Addr, basicEnv)
	if err != nil {
		t.Fatal(err)
	}

	if err := tun.RefreshHints(s.svc); err != nil {
		t.Fatal(err)
	}
	optEnv, err := BuildForwardHinted(tun, dest, []byte("x"), s.root.Split("b2"))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := s.svc.DeliverForward(in.Node().Ref().Addr, optEnv)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.HintHits != 5 {
		t.Fatalf("hint hits %d, want 5", opt.Stats.HintHits)
	}
	if opt.Stats.OverlayHops >= basic.Stats.OverlayHops {
		t.Fatalf("optimization did not reduce hops: %d vs %d", opt.Stats.OverlayHops, basic.Stats.OverlayHops)
	}
}

func TestStaleHintsFallBack(t *testing.T) {
	s := newSys(t, 400, 3, 11)
	in := s.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(s.svc); err != nil {
		t.Fatal(err)
	}
	// Kill two of the hinted hop nodes: their hints go stale.
	for i := range tun.Hops[:2] {
		if err := s.ov.Fail(tun.Hint(i)); err != nil {
			t.Fatal(err)
		}
	}
	env, err := BuildForwardHinted(tun, id.HashString("d"), []byte("x"), s.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.svc.DeliverForward(in.Node().Ref().Addr, env)
	if err != nil {
		t.Fatalf("stale hints broke delivery: %v", err)
	}
	if res.Stats.HintMisses != 2 || res.Stats.HintHits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", res.Stats.HintHits, res.Stats.HintMisses)
	}
}

func TestBaselineDeliverAndDie(t *testing.T) {
	s := newSys(t, 200, 3, 12)
	ft, err := FormFixed(s.ov, 5, s.root.Split("ft"))
	if err != nil {
		t.Fatal(err)
	}
	dest := id.HashString("d")
	env, err := BuildFixedForward(ft, dest, []byte("baseline"), s.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	gotDest, payload, err := s.svc.DeliverFixed(ft, env)
	if err != nil {
		t.Fatal(err)
	}
	if gotDest != dest || string(payload) != "baseline" {
		t.Fatalf("baseline delivery mismatch")
	}
	if !ft.Alive(s.ov) {
		t.Fatalf("Alive false with all relays up")
	}
	// Kill one relay: the tunnel is dead, permanently.
	if err := s.ov.Fail(ft.Relays[2].Addr); err != nil {
		t.Fatal(err)
	}
	if ft.Alive(s.ov) {
		t.Fatalf("Alive true with a dead relay")
	}
	if _, _, err := s.svc.DeliverFixed(ft, env); !errors.Is(err, ErrRelayDead) {
		t.Fatalf("err = %v, want ErrRelayDead", err)
	}
}

// TestBaselineIsOneOnion: the fixed baseline is BuildForward over its
// relays and DeliverFixed peels it with Envelope.Peel, at every length. A
// dead relay fails with ErrRelayDead before that relay peels, and relays
// reordered after the build fail on the layer order, not on a peel.
func TestBaselineIsOneOnion(t *testing.T) {
	s := newSys(t, 200, 3, 21)
	dest := id.HashString("d")
	for l := 1; l <= 8; l++ {
		ft, err := FormFixed(s.ov, l, s.root.SplitN("ft", l))
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte(fmt.Sprintf("baseline l=%d", l))
		env, err := BuildFixedForward(ft, dest, payload, s.root.SplitN("b", l))
		if err != nil {
			t.Fatal(err)
		}
		if env.HopID != ft.Relays[0].ID || env.Hint != ft.Relays[0].Addr {
			t.Fatalf("l=%d: envelope addressed to %s@%d, want the first relay", l, env.HopID.Short(), env.Hint)
		}
		before := append([]byte(nil), env.Sealed...)
		gotDest, got, err := s.svc.DeliverFixed(ft, env)
		if err != nil || gotDest != dest || !bytes.Equal(got, payload) {
			t.Fatalf("l=%d: DeliverFixed = %s, %q, %v", l, gotDest.Short(), got, err)
		}
		if !bytes.Equal(env.Sealed, before) {
			t.Fatalf("l=%d: DeliverFixed mutated the caller's envelope", l)
		}
	}

	ft, err := FormFixed(s.ov, 4, s.root.Split("order"))
	if err != nil {
		t.Fatal(err)
	}
	env, err := BuildFixedForward(ft, dest, []byte("x"), s.root.Split("ob"))
	if err != nil {
		t.Fatal(err)
	}
	ft.Relays[1], ft.Relays[2] = ft.Relays[2], ft.Relays[1]
	if _, _, err := s.svc.DeliverFixed(ft, env); err == nil || !strings.Contains(err.Error(), "layer order corrupt at relay 0") {
		t.Fatalf("swapped relays: err = %v, want the layer-order error at relay 0", err)
	}
	ft.Relays[1], ft.Relays[2] = ft.Relays[2], ft.Relays[1]

	// The first relay dead: nothing is peeled, so no layer error can mask it.
	if err := s.ov.Fail(ft.Relays[0].Addr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.svc.DeliverFixed(ft, env); !errors.Is(err, ErrRelayDead) || !strings.Contains(err.Error(), "relay 0") {
		t.Fatalf("dead first relay: err = %v, want ErrRelayDead at relay 0", err)
	}
}

// TestFormFixedAllocsPerTunnel: a fixed tunnel of up to eight relays costs
// its struct, which holds its relays, link and hints, and its block of
// hops, whose keys are drawn in place. A tunnel of more relays still forms.
func TestFormFixedAllocsPerTunnel(t *testing.T) {
	s := newSys(t, 200, 3, 13)
	stream := s.root.Split("ft")
	for _, l := range []int{1, 5, 8, 12} {
		var ft *FixedTunnel
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if ft, err = FormFixed(s.ov, l, stream); err != nil {
				t.Fatal(err)
			}
		})
		if l <= 8 && allocs > 2 {
			t.Errorf("FormFixed(%d): %.0f allocations per tunnel, want ≤ 2", l, allocs)
		}
		if ft.Length() != l || len(ft.tunnel.Hops) != l {
			t.Fatalf("FormFixed(%d): %d relays, %d hops", l, ft.Length(), len(ft.tunnel.Hops))
		}
		for i, r := range ft.Relays {
			if ft.tunnel.Hops[i].HopID != r.ID || ft.tunnel.Hint(i) != r.Addr || ft.tunnel.Hops[i].Key == (crypt.Key{}) {
				t.Fatalf("FormFixed(%d): hop %d is not relay %s with a key", l, i, r)
			}
			if slices.IndexFunc(ft.Relays, func(o pastry.NodeRef) bool { return o.Addr == r.Addr }) != i {
				t.Fatalf("FormFixed(%d): relay %s picked twice", l, r)
			}
		}
	}
}

func TestFormFixedErrors(t *testing.T) {
	s := newSys(t, 3, 3, 13)
	if _, err := FormFixed(s.ov, 0, s.root); err == nil {
		t.Fatalf("zero-length fixed tunnel accepted")
	}
	if _, err := FormFixed(s.ov, 10, s.root); err == nil {
		t.Fatalf("oversized fixed tunnel accepted")
	}
}

func TestBootstrapViaOnionRouting(t *testing.T) {
	s := newSys(t, 200, 3, 14)
	pki := onionroute.NewPKI(s.root.Split("pki"))
	in := s.newInitiator(t, "a")
	if err := in.Bootstrap(5, pki, 3); err != nil {
		t.Fatal(err)
	}
	if in.PoolSize() != 5 {
		t.Fatalf("pool %d after bootstrap", in.PoolSize())
	}
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	env, err := BuildForward(tun, nil, id.HashString("d"), []byte("boot"), s.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.svc.DeliverForward(in.Node().Ref().Addr, env); err != nil {
		t.Fatal(err)
	}
}

func TestDeployViaTunnel(t *testing.T) {
	s := newSys(t, 200, 3, 15)
	in := s.readyInitiator(t, "a", 5)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.DeployViaTunnel(tun, 4); err != nil {
		t.Fatal(err)
	}
	if in.PoolSize() != 9 {
		t.Fatalf("pool %d, want 9", in.PoolSize())
	}
	// All deployed anchors are fetchable by their hop nodes.
	for _, sec := range in.Pool() {
		if !s.dir.Available(sec.HopID) {
			t.Fatalf("anchor %s not available", sec.HopID.Short())
		}
	}
}

func TestDeleteAnchorsPrunesPool(t *testing.T) {
	s := newSys(t, 150, 3, 16)
	in := s.readyInitiator(t, "a", 10)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.DeleteAnchors(tun); err != nil {
		t.Fatal(err)
	}
	if in.PoolSize() != 6 {
		t.Fatalf("pool %d after deleting 4, want 6", in.PoolSize())
	}
	for _, h := range tun.Hops {
		if s.dir.Available(h.HopID) {
			t.Fatalf("deleted anchor %s still available", h.HopID.Short())
		}
	}
}

// TestDropAnchorSparesActiveTunnels: DropAnchor retires one idle anchor —
// out of the pool and out of the directory — but refuses one an active
// tunnel rides on until that tunnel is released.
func TestDropAnchorSparesActiveTunnels(t *testing.T) {
	s := newSys(t, 150, 3, 19)
	in := s.readyInitiator(t, "a", 8)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	riding := tun.Hops[0].HopID
	var idle id.ID
	for _, sec := range in.Pool() {
		if !slices.Contains(tun.HopIDs(), sec.HopID) {
			idle = sec.HopID
			break
		}
	}
	if in.DropAnchor(riding) {
		t.Fatal("dropped an anchor an active tunnel rides on")
	}
	if !in.DropAnchor(idle) {
		t.Fatal("idle anchor not dropped")
	}
	if in.PoolSize() != 7 || s.dir.Available(idle) || !s.dir.Available(riding) {
		t.Fatalf("pool %d, idle available %v, riding available %v; want 7, false, true",
			in.PoolSize(), s.dir.Available(idle), s.dir.Available(riding))
	}
	if in.DropAnchor(idle) {
		t.Fatal("an anchor already dropped was dropped again")
	}
	in.Release(tun)
	if !in.DropAnchor(riding) || in.PoolSize() != 6 || s.dir.Available(riding) {
		t.Fatalf("released tunnel's anchor not dropped: pool %d", in.PoolSize())
	}
}

func TestSingleSymmetricOpPerHop(t *testing.T) {
	// §4: "each tunnel hop performs only a single symmetric key operation
	// per message that is processed" — l ops for an l-hop traversal, on
	// both directions.
	s := newSys(t, 300, 3, 29)
	in := s.readyInitiator(t, "a", 20)
	for _, l := range []int{1, 3, 5} {
		tun, err := in.FormTunnel(l)
		if err != nil {
			t.Fatal(err)
		}
		env, err := BuildForward(tun, nil, id.HashString("d"), []byte("m"), s.root.SplitN("b", l))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.svc.DeliverForward(in.Node().Ref().Addr, env)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CryptoOps != l {
			t.Fatalf("l=%d forward: %d crypto ops", l, res.Stats.CryptoOps)
		}
		rep, err := in.FormTunnel(l)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := BuildReply(rep, nil, in.NewBid(), s.root.SplitN("r", l))
		if err != nil {
			t.Fatal(err)
		}
		rres, err := s.svc.DeliverReply(s.ov.RandomLive(s.root.SplitN("resp", l)).Ref().Addr, &ReplyEnvelope{
			Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: []byte("d"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rres.Stats.CryptoOps != l {
			t.Fatalf("l=%d reply: %d crypto ops", l, rres.Stats.CryptoOps)
		}
	}
}

func TestDeleteAnchorsSparesSharedAnchors(t *testing.T) {
	// Two tunnels formed from a small pool overlap; retiring one must not
	// break the other.
	s := newSys(t, 200, 3, 27)
	in := s.readyInitiator(t, "a", 4)
	t1, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	t1Set := map[id.ID]bool{}
	for _, h := range t1.Hops {
		t1Set[h.HopID] = true
	}
	for _, h := range t2.Hops {
		if t1Set[h.HopID] {
			shared++
		}
	}
	if shared == 0 {
		t.Skip("pool draw produced disjoint tunnels; nothing to test")
	}
	if err := in.DeleteAnchors(t1); err != nil {
		t.Fatal(err)
	}
	// Every anchor of t2 must still be deployed.
	for _, h := range t2.Hops {
		if !s.dir.Available(h.HopID) {
			t.Fatalf("retiring t1 destroyed t2's anchor %s", h.HopID.Short())
		}
	}
	// And t2 still carries traffic.
	env, err := BuildForward(t2, nil, id.HashString("d"), []byte("alive"), s.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.svc.DeliverForward(in.Node().Ref().Addr, env); err != nil {
		t.Fatalf("t2 broken after t1 retirement: %v", err)
	}
	// Retiring t2 afterwards removes everything.
	if err := in.DeleteAnchors(t2); err != nil {
		t.Fatal(err)
	}
	for _, h := range t2.Hops {
		if s.dir.Available(h.HopID) {
			t.Fatalf("anchor %s survived final retirement", h.HopID.Short())
		}
	}
}

func TestNewBidOwnedByInitiator(t *testing.T) {
	s := newSys(t, 300, 3, 17)
	in := s.readyInitiator(t, "a", 5)
	for i := 0; i < 50; i++ {
		bid := in.NewBid()
		if s.ov.OwnerOf(bid).ID() != in.Node().ID() {
			t.Fatalf("bid %s not owned by initiator", bid.Short())
		}
		if bid == in.Node().ID() {
			t.Fatalf("bid equals node id; trivially identifying")
		}
	}
}

func TestPoolPrunesLostAnchors(t *testing.T) {
	s := newSys(t, 200, 3, 18)
	in := s.readyInitiator(t, "a", 6)
	victim := in.Pool()[0]
	s.mgr.BeginBatch()
	for _, addr := range s.dir.ReplicaAddrs(victim.HopID) {
		if err := s.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
	}
	s.mgr.EndBatch()
	if in.PoolSize() != 5 {
		t.Fatalf("pool %d after losing one anchor, want 5", in.PoolSize())
	}
}

func TestEnvelopeSizes(t *testing.T) {
	s := newSys(t, 100, 3, 20)
	in := s.readyInitiator(t, "a", 10)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	env, err := BuildForward(tun, nil, id.HashString("d"), payload, s.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	// Three layers of sealing add 3*Overhead plus framing; the envelope
	// must be a little larger than the payload but far from double.
	if env.SizeBytes() < 1000 || env.SizeBytes() > 1400 {
		t.Fatalf("envelope size %d implausible for 1000-byte payload", env.SizeBytes())
	}
}
