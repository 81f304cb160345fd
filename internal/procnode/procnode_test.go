package procnode

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math"
	"testing"
	"time"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/obs"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
)

// startOverlay brings up n nodes, each with its own tcptransport over
// localhost TCP, all fully meshed through a shared peer table — the same
// wiring the bulletin board performs for real processes. Every node has a
// registry, so tests read its counters.
func startOverlay(t testing.TB, n int) []*Node {
	t.Helper()
	return startOverlayOn(t, n, nil)
}

// startOverlayOn is startOverlay with the codec of chosen nodes replaced:
// the seam the loss tests reach a node's inbound frames through.
func startOverlayOn(t testing.TB, n int, codecs map[transport.Addr]tcptransport.Codec) []*Node {
	t.Helper()
	trs := make([]*tcptransport.Transport, n)
	peers := make(map[transport.Addr]string, n)
	for i := 0; i < n; i++ {
		var codec tcptransport.Codec = Codec{}
		if c, ok := codecs[transport.Addr(i)]; ok {
			codec = c
		}
		tr := tcptransport.New(tcptransport.Config{Codec: codec, Logf: t.Logf})
		t.Cleanup(tr.Close)
		hostport, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		peers[transport.Addr(i)] = hostport
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = New(trs[i], transport.Addr(i), t.Logf, obs.NewRegistry())
		nodes[i].SetPeers(peers)
	}
	return nodes
}

func TestNodeIDDeterministic(t *testing.T) {
	if NodeID(3) != NodeID(3) {
		t.Fatal("NodeID not deterministic")
	}
	if NodeID(3) == NodeID(4) {
		t.Fatal("NodeID collision across addresses")
	}
}

// TestNodeIDMatchesItsFormattedForm: NodeID hashes the bytes it always
// has — "tapnode/" and the address in decimal — without formatting them,
// so every member computes the IDs it did, at any address.
func TestNodeIDMatchesItsFormattedForm(t *testing.T) {
	for _, a := range []transport.Addr{0, 1, 6, 255, 1 << 20, math.MaxInt, -7, math.MinInt, transport.NoAddr} {
		if got, want := NodeID(a), id.HashString(fmt.Sprintf("tapnode/%d", a)); got != want {
			t.Errorf("NodeID(%d) = %s, want %s", a, got.Short(), want.Short())
		}
	}
	if got := testing.AllocsPerRun(100, func() { NodeID(1 << 40) }); got != 0 {
		t.Errorf("%.0f allocations per NodeID, want 0", got)
	}
}

func TestAnchorDeployAck(t *testing.T) {
	nodes := startOverlay(t, 2)
	client, holder := nodes[0], nodes[1]

	gen, err := tha.NewGenerator(client.ID[:], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := gen.Generate(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client.tr.Send(client.Addr, holder.Addr, &AnchorMsg{Anchor: sec.Anchor})
	select {
	case got := <-client.acks:
		if got != sec.HopID {
			t.Fatalf("ack for %s, deployed %s", got.Short(), sec.HopID.Short())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ack for deployed anchor")
	}
	if holder.AnchorCount() != 1 {
		t.Fatalf("holder stores %d anchors", holder.AnchorCount())
	}
}

// TestSetPeersForgetsDepartedMembers: the board prunes a silent member, and
// the next table a node is handed no longer lists it. The node must end up
// knowing that table exactly — plus itself, listed or not.
func TestSetPeersForgetsDepartedMembers(t *testing.T) {
	nodes := startOverlay(t, 3)
	n := nodes[0]
	n.SetPeers(map[transport.Addr]string{1: "127.0.0.1:1"})
	if _, ok := n.lookupID(NodeID(2)); ok || n.tr.Reachable(2) {
		t.Error("a member gone from the board's table still resolves or is still dialable")
	}
	if a, ok := n.lookupID(NodeID(1)); !ok || a != 1 || !n.tr.Reachable(1) {
		t.Error("a member still in the table was forgotten")
	}
	if a, ok := n.lookupID(n.ID); !ok || a != n.Addr {
		t.Error("the node forgot itself")
	}
	if len(n.byID) != 2 {
		t.Errorf("the index holds %d members, want 2", len(n.byID))
	}
}

func TestRoundTripStreamSingleChunk(t *testing.T) {
	nodes := startOverlay(t, 7)
	client := nodes[0]
	payload := []byte("the quick brown fox jumps over the lazy dog")
	echo, err := client.RoundTripStream(StreamConfig{
		ForwardHops: []transport.Addr{1, 2, 3},
		ReplyHops:   []transport.Addr{4, 5},
		Dest:        6,
	}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatalf("echo mismatch: %q", echo)
	}
}

func TestRoundTripStreamMultiChunk(t *testing.T) {
	nodes := startOverlay(t, 6)
	client := nodes[0]
	payload := bytes.Repeat([]byte("tunnel-hop-anchors!"), 200) // ~3.8 KiB
	echo, err := client.RoundTripStream(StreamConfig{
		ForwardHops: []transport.Addr{1, 2},
		ReplyHops:   []transport.Addr{3, 4},
		Dest:        5,
		ChunkSize:   256,
	}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatalf("echo mismatch: %d vs %d bytes", len(echo), len(payload))
	}
}

// TestRelayCannotReadPayload is the anonymity sanity check in process
// form: a relay hop sees only the envelope addressed to its own hopid —
// sealed bytes that do not contain the plaintext.
func TestRelayCannotReadPayload(t *testing.T) {
	nodes := startOverlay(t, 4)
	client := nodes[0]

	// Capture what node 1 (the first forward hop) receives by wrapping
	// its handler. Detach the node and interpose.
	relay := nodes[1]
	var seen [][]byte
	relay.tr.Detach(relay.Addr)
	relay.tr.Attach(relay.Addr, transport.HandlerFunc(func(from transport.Addr, msg transport.Message) {
		if env, ok := msg.(*core.Envelope); ok {
			seen = append(seen, append([]byte(nil), env.Sealed...))
		}
		relay.Deliver(from, msg)
	}))

	secret := []byte("SECRET-PAYLOAD-MARKER")
	echo, err := client.RoundTripStream(StreamConfig{
		ForwardHops: []transport.Addr{1, 2},
		ReplyHops:   []transport.Addr{2, 1},
		Dest:        3,
	}, secret)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, secret) {
		t.Fatal("echo mismatch")
	}
	if len(seen) == 0 {
		t.Fatal("interposer saw no envelopes")
	}
	for i, s := range seen {
		if bytes.Contains(s, secret) {
			t.Fatalf("envelope %d leaks the plaintext payload", i)
		}
	}
}
