package tap

import (
	"bytes"
	"testing"

	"tap/internal/simnet"
)

func TestNewDefaults(t *testing.T) {
	n, err := New(Options{Nodes: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n.Size() != 100 {
		t.Fatalf("size %d", n.Size())
	}
	o := n.Options()
	if o.ReplicationFactor != 3 || o.TunnelLength != 5 {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

func TestClientLifecycle(t *testing.T) {
	n, err := New(Options{Nodes: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.NewClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	if c.AnchorCount() != 0 {
		t.Fatalf("fresh client has anchors")
	}
	if _, err := c.NewTunnel(3); err == nil {
		t.Fatalf("tunnel formed without anchors")
	}
	if err := c.DeployAnchors(8); err != nil {
		t.Fatal(err)
	}
	if c.AnchorCount() != 8 {
		t.Fatalf("anchor count %d", c.AnchorCount())
	}
	tun, err := c.NewTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if tun.Length() != 3 {
		t.Fatalf("tunnel length %d", tun.Length())
	}

	dest := KeyOf("destination-service")
	res, err := c.Send(tun, dest, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Payload) != "hello" {
		t.Fatalf("payload %q", res.Payload)
	}
	if res.Responder != n.OwnerOf(dest) {
		t.Fatalf("landed on wrong node")
	}

	// Grow the pool through the tunnel, then retire it.
	if err := c.DeployAnchorsViaTunnel(tun, 4); err != nil {
		t.Fatal(err)
	}
	if c.AnchorCount() != 12 {
		t.Fatalf("anchor count %d after tunnel deploy", c.AnchorCount())
	}
	if err := c.RetireTunnel(tun); err != nil {
		t.Fatal(err)
	}
	if c.AnchorCount() != 9 {
		t.Fatalf("anchor count %d after retire", c.AnchorCount())
	}
}

func TestFileRetrievalSurvivesTargetedFailures(t *testing.T) {
	n, err := New(Options{Nodes: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("x"), 10_000)
	fid := n.PublishFile("bigfile", content)
	c, err := n.NewClient("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeployAnchors(12); err != nil {
		t.Fatal(err)
	}
	fwd, rep, err := c.NewTunnelPair(3)
	if err != nil {
		t.Fatal(err)
	}
	// Kill every current hop node of both tunnels (sparing endpoints).
	for _, tun := range []*Tunnel{fwd, rep} {
		for _, hid := range tun.HopIDs() {
			owner := n.OwnerOf(hid)
			if owner == c.NodeID() || owner == n.OwnerOf(fid) {
				continue
			}
			if err := n.FailNodeOwning(hid); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := c.RetrieveFileVia(fwd, rep, fid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("content mismatch")
	}
}

func TestRetrieveFileConvenience(t *testing.T) {
	n, err := New(Options{Nodes: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	fid := n.PublishFile("doc", []byte("contents"))
	c, _ := n.NewClient("carol")
	if err := c.DeployAnchors(12); err != nil {
		t.Fatal(err)
	}
	got, err := c.RetrieveFile(fid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "contents" {
		t.Fatalf("got %q", got)
	}
}

func TestSessionAPI(t *testing.T) {
	n, err := New(Options{Nodes: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := n.NewClient("dave")
	if err := c.DeployAnchors(10); err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(KeyOf("ssh.example"), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := n.FailRandom(); err != nil {
			t.Fatal(err)
		}
		resp, err := sess.Exchange([]byte("ls"), func(req []byte) []byte {
			return append([]byte("ok: "), req...)
		})
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if string(resp) != "ok: ls" {
			t.Fatalf("resp %q", resp)
		}
	}
}

func TestAdversaryAPI(t *testing.T) {
	n, err := New(Options{Nodes: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := n.NewClient("eve-target")
	if err := c.DeployAnchors(10); err != nil {
		t.Fatal(err)
	}
	tun, err := c.NewTunnel(5)
	if err != nil {
		t.Fatal(err)
	}
	adv := n.Adversary()
	if adv.TunnelCorrupted(tun) {
		t.Fatalf("corrupted with no adversary")
	}
	got := adv.Corrupt(0.2)
	if got != 60 {
		t.Fatalf("collusion size %d", got)
	}
	if adv.LeakedAnchors() == 0 {
		t.Fatalf("20%% collusion leaked nothing out of 10 anchors x3 replicas (possible but wildly unlikely)")
	}
	rate := adv.CorruptionRate([]*Tunnel{tun})
	if rate != 0 && rate != 1 {
		t.Fatalf("single-tunnel rate %f", rate)
	}
}

func TestFailFractionLosesAnchors(t *testing.T) {
	n, err := New(Options{Nodes: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := n.NewClient("frank")
	if err := c.DeployAnchors(20); err != nil {
		t.Fatal(err)
	}
	failed := n.FailFraction(0.6)
	if failed != 180 {
		t.Fatalf("failed %d nodes", failed)
	}
	// With 60% simultaneous failure and k=3, some of 20 anchors are very
	// likely gone (p^k = 21.6% each).
	if c.AnchorCount() == 20 {
		t.Logf("warning: no anchors lost at p=0.6 (unlikely but possible)")
	}
	if n.Size() != 120 {
		t.Fatalf("size %d", n.Size())
	}
}

func TestChurnWaveAndJoin(t *testing.T) {
	n, err := New(Options{Nodes: 200, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	n.ChurnWave(20, 20)
	if n.Size() != 200 {
		t.Fatalf("size %d after balanced wave", n.Size())
	}
	nid := n.Join()
	if n.OwnerOf(nid) != nid {
		t.Fatalf("joined node does not own its id")
	}
	if n.Size() != 201 {
		t.Fatalf("size %d after join", n.Size())
	}
}

// TestFailedNodesLeaveTheNetwork pins that every way a node leaves the
// overlay takes it off the simulated network too, and that a joiner goes
// on it: after each step an address is attached exactly when the overlay
// node there is alive.
func TestFailedNodesLeaveTheNetwork(t *testing.T) {
	n, err := New(Options{Nodes: 200, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, wantSize int) {
		t.Helper()
		if n.Size() != wantSize {
			t.Fatalf("after %s: size %d, want %d", step, n.Size(), wantSize)
		}
		for a := 0; a < n.w.OV.NumAddrs(); a++ {
			addr := simnet.Addr(a)
			node := n.w.OV.Node(addr)
			alive := node != nil && node.Alive()
			if got := n.simnet.Attached(addr); got != alive {
				t.Fatalf("after %s: address %d attached = %v, alive = %v", step, a, got, alive)
			}
		}
	}
	check("New", 200)
	if err := n.FailNodeOwning(KeyOf("victim")); err != nil {
		t.Fatal(err)
	}
	check("FailNodeOwning", 199)
	if _, err := n.FailRandom(); err != nil {
		t.Fatal(err)
	}
	check("FailRandom", 198)
	if got := n.FailFraction(0.1); got != 19 {
		t.Fatalf("FailFraction failed %d nodes, want 19", got)
	}
	check("FailFraction", 179)
	n.ChurnWave(10, 10)
	check("ChurnWave", 179)
	n.Join()
	check("Join", 180)
}

func TestTimedTransferModes(t *testing.T) {
	n, err := New(Options{Nodes: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := n.NewClient("grace")
	if err := c.DeployAnchors(10); err != nil {
		t.Fatal(err)
	}
	dest := KeyOf("the-file")
	const size = 250_000
	overt, err := c.TimedTransfer(Overt, dest, size, 0)
	if err != nil {
		t.Fatal(err)
	}
	basic, err := c.TimedTransfer(TAPBasic, dest, size, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := c.TimedTransfer(TAPOpt, dest, size, 5)
	if err != nil {
		t.Fatal(err)
	}
	if overt <= 0 || basic <= 0 || opt <= 0 {
		t.Fatalf("non-positive durations")
	}
	if basic <= overt {
		t.Fatalf("basic (%v) not slower than overt (%v)", basic, overt)
	}
	if opt >= basic {
		t.Fatalf("opt (%v) not faster than basic (%v)", opt, basic)
	}
}

func TestTimedTransferUnknownMode(t *testing.T) {
	n, err := New(Options{Nodes: 100, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := n.NewClient("m")
	if err := c.DeployAnchors(6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TimedTransfer(TransferMode(99), KeyOf("d"), 100, 3); err == nil {
		t.Fatalf("unknown mode accepted")
	}
}

func TestTimedTransferPoolTooSmall(t *testing.T) {
	n, err := New(Options{Nodes: 100, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := n.NewClient("m")
	if err := c.DeployAnchors(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TimedTransfer(TAPBasic, KeyOf("d"), 100, 5); err == nil {
		t.Fatalf("tunnel longer than pool accepted")
	}
}

func TestPuzzleOption(t *testing.T) {
	n, err := New(Options{Nodes: 100, Seed: 11, PuzzleDifficulty: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := n.NewClient("i")
	// DeployAnchors mints the puzzles transparently.
	if err := c.DeployAnchors(3); err != nil {
		t.Fatal(err)
	}
	if c.AnchorCount() != 3 {
		t.Fatalf("anchors %d", c.AnchorCount())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() ID {
		n, err := New(Options{Nodes: 150, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		c, _ := n.NewClient("x")
		if err := c.DeployAnchors(5); err != nil {
			t.Fatal(err)
		}
		tun, err := c.NewTunnel(3)
		if err != nil {
			t.Fatal(err)
		}
		return tun.HopIDs()[0]
	}
	if run() != run() {
		t.Fatalf("API not deterministic for fixed seed")
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{Nodes: -5}); err == nil {
		t.Fatalf("negative Nodes accepted")
	}
}

func TestMailPublicAPIRoundTrip(t *testing.T) {
	n, err := New(Options{Nodes: 300, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := n.NewClient("a")
	b, _ := n.NewClient("b")
	for _, c := range []*Client{a, b} {
		if err := c.DeployAnchors(16); err != nil {
			t.Fatal(err)
		}
	}
	box := b.NewPseudonym()
	bid, err := a.SendMail(box, []byte("hello"), true)
	if err != nil {
		t.Fatal(err)
	}
	if n.PendingMail(box) != 1 {
		t.Fatalf("pending %d", n.PendingMail(box))
	}
	msgs, err := b.FetchMail(box)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Body) != "hello" {
		t.Fatalf("fetch mismatch: %v", msgs)
	}
	target, err := b.ReplyMail(msgs[0], []byte("hi back"))
	if err != nil {
		t.Fatal(err)
	}
	if target != bid {
		t.Fatalf("reply target %s, want bid %s", target.Short(), bid.Short())
	}
}

func TestParseAndKeyOf(t *testing.T) {
	k := KeyOf("name")
	parsed, err := ParseID(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != k {
		t.Fatalf("round trip failed")
	}
	if _, err := ParseID("zz"); err == nil {
		t.Fatalf("bad id accepted")
	}
}

func TestBaselineSessionPublicAPI(t *testing.T) {
	n, err := New(Options{Nodes: 300, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	server := KeyOf("srv")
	fsess, err := OpenBaselineSession(n, server, 0) // default length
	if err != nil {
		t.Fatal(err)
	}
	resp, err := fsess.Exchange([]byte("x"), func(req []byte) []byte { return req })
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "x" {
		t.Fatalf("resp %q", resp)
	}
}

func TestChurnWaveWithNetworkDetaches(t *testing.T) {
	// With the simulated network enabled, churned-out nodes must be
	// detached so in-flight packets toward them drop.
	n, err := New(Options{Nodes: 200, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	before := n.Size()
	n.ChurnWave(15, 15)
	if n.Size() != before {
		t.Fatalf("population changed")
	}
	// A timed transfer still works afterwards (handlers for joiners were
	// attached, dead addresses detached).
	c, _ := n.NewClient("x")
	if err := c.DeployAnchors(8); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TimedTransfer(TAPBasic, KeyOf("d"), 10_000, 3); err != nil {
		t.Fatal(err)
	}
}

func TestFailFractionWithNetwork(t *testing.T) {
	n, err := New(Options{Nodes: 200, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.FailFraction(0.25); got != 50 {
		t.Fatalf("failed %d", got)
	}
	if n.Size() != 150 {
		t.Fatalf("size %d", n.Size())
	}
}
