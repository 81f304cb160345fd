package procnode

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/obs"
	"tap/internal/rng"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
	"tap/internal/wire"
)

// relayRig is one relay node and a sink address hosted on the same
// transport. What the relay sends the sink takes the co-hosted path — a
// decode of it from a fresh buffer, queued for the dispatch loop — so no
// socket or writer goroutine takes part, and the sink may keep what it is
// handed, since no frame's bytes are under it. That round trip is the
// rig's own cost: the allocation pins below count it, and the benchmarks,
// which time the relay alone, point the relay at a socket instead
// (drainSink). Unless a test makes the relay listen, nothing is ever sent
// *to* it: the test goroutine is the only caller of Deliver, as a reader
// would be.
type relayRig struct {
	relay *Node
	fw    *core.Tunnel // relay is hop 0, the sink hosts the rest
	rp    *core.Tunnel // likewise
	sunk  chan transport.Message
	strm  *rng.Stream
}

const relayAddr, sinkAddr transport.Addr = 1, 2

func newRelayRig(t testing.TB) *relayRig {
	t.Helper()
	reg := obs.NewRegistry() // the transport's too: the parking tests read its Stats
	tr := tcptransport.New(tcptransport.Config{Codec: Codec{}, Registry: reg})
	t.Cleanup(tr.Close)
	r := &relayRig{
		relay: New(tr, relayAddr, t.Logf, reg),
		sunk:  make(chan transport.Message, 1024),
		strm:  rng.New(16).Split("relay-rig"),
	}
	tr.Attach(sinkAddr, transport.HandlerFunc(func(_ transport.Addr, m transport.Message) { r.sunk <- m }))
	gen, err := tha.NewGenerator(r.relay.ID[:], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	mint := func(k int) *core.Tunnel {
		tun := &core.Tunnel{Hops: make([]tha.Secret, k)}
		for i := range tun.Hops {
			if tun.Hops[i], err = gen.Generate(rand.Reader); err != nil {
				t.Fatal(err)
			}
		}
		return tun
	}
	r.fw, r.rp = mint(3), mint(2)
	return r
}

// await returns the next message the sink received.
func (r *relayRig) await(t testing.TB) transport.Message {
	t.Helper()
	select {
	case m := <-r.sunk:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("nothing reached the sink")
		return nil
	}
}

// quiet asserts the relay sent nothing: a no-op event is queued behind
// whatever the relay handed the dispatch loop, and once it has run the
// sink has seen it all.
func (r *relayRig) quiet(t testing.TB) {
	t.Helper()
	done := make(chan struct{})
	r.relay.tr.Schedule(0, transport.Func(func() { close(done) }))
	<-done
	select {
	case m := <-r.sunk:
		t.Fatalf("relay sent an unexpected %T", m)
	default:
	}
}

// install delivers a's AnchorMsg and consumes the ack.
func (r *relayRig) install(t testing.TB, a tha.Anchor) {
	t.Helper()
	r.relay.Deliver(sinkAddr, &AnchorMsg{Anchor: a})
	if ack, ok := r.await(t).(*AnchorAck); !ok || ack.HopID != a.HopID {
		t.Fatalf("install of %s not acknowledged", a.HopID.Short())
	}
}

// forwards returns n forward envelopes for the relay's hop. Peeling is
// in place, so each Deliver consumes one.
func (r *relayRig) forwards(t testing.TB, n int) []*core.Envelope {
	t.Helper()
	hints := []transport.Addr{relayAddr, sinkAddr, sinkAddr}
	env, err := core.BuildForward(r.fw, hints, NodeID(sinkAddr), []byte("sixty-four bytes or so of exit payload, give or take a few"), r.strm)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*core.Envelope, n)
	for i := range out {
		out[i] = &core.Envelope{HopID: env.HopID, Hint: env.Hint, Sealed: bytes.Clone(env.Sealed)}
	}
	return out
}

// replies is forwards for the reply tunnel.
func (r *relayRig) replies(t testing.TB, n int) []*core.ReplyEnvelope {
	t.Helper()
	rt, err := core.BuildReply(r.rp, []transport.Addr{relayAddr, sinkAddr}, NodeID(sinkAddr), r.strm)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*core.ReplyEnvelope, n)
	for i := range out {
		out[i] = &core.ReplyEnvelope{Target: rt.First, Hint: rt.FirstHint, Onion: bytes.Clone(rt.Onion), Data: []byte("sealed echo")}
	}
	return out
}

// TestRelayKeyScheduleOncePerAnchor pins the retention rule and what it
// buys. An anchor that peels one message keeps the bare record it was
// installed with; the second peel derives the schedule into the anchor's
// cell, and every later peel uses that same *crypt.Sealer; another anchor,
// under another key, has a schedule of its own.
func TestRelayKeyScheduleOncePerAnchor(t *testing.T) {
	// Relay bookkeeping per message: none — the envelope is peeled where it
	// lies. The rig's co-hosted sink adds its round trip: the buffer the
	// envelope is encoded into and the decoder it is decoded by. Measured 2.
	const maxPeelAllocs = 2

	const runs = 50
	r := newRelayRig(t)
	cases := []struct {
		dir     string
		anchor  tha.Anchor
		deliver func(i int)
	}{
		{dir: "forward", anchor: r.fw.Hops[0].Anchor},
		{dir: "reply", anchor: r.rp.Hops[0].Anchor},
	}
	fw, rp := r.forwards(t, runs+3), r.replies(t, runs+3)
	cases[0].deliver = func(i int) { r.relay.Deliver(sinkAddr, fw[i]) }
	cases[1].deliver = func(i int) { r.relay.Deliver(sinkAddr, rp[i]) }

	var schedules []*crypt.Sealer
	for _, c := range cases {
		hop := c.anchor.HopID
		r.install(t, c.anchor)
		if h := r.relay.anchors[hop]; h.peels != 0 || h.Anchor != c.anchor {
			t.Fatalf("%s: install altered the record (peels %d)", c.dir, h.peels)
		}

		c.deliver(0)
		r.await(t)
		// Anchor values compare their schedule cell by identity: equal to
		// the bare record means none was installed, so nothing is retained.
		if h := r.relay.anchors[hop]; h.peels != 1 || h.Anchor != c.anchor {
			t.Fatalf("%s: a one-shot anchor retains a key schedule (peels %d)", c.dir, h.peels)
		}

		c.deliver(1)
		r.await(t)
		cached := r.relay.anchors[hop]
		if cached.peels != 2 || cached.Anchor == c.anchor {
			t.Fatalf("%s: second peel did not start caching (peels %d)", c.dir, cached.peels)
		}
		// The cell is filled, so Sealer returns what the second peel derived.
		schedule := cached.Sealer()

		next := 2
		got := testing.AllocsPerRun(runs, func() { c.deliver(next); next++ })
		for i := 2; i < next; i++ {
			r.await(t)
		}
		if got > maxPeelAllocs {
			t.Errorf("%s: %.1f allocations per peel from the third on, want <= %d", c.dir, got, maxPeelAllocs)
		}
		if held := r.relay.anchors[hop]; held != cached || held.Sealer() != schedule {
			t.Errorf("%s: the cached schedule was replaced while peeling %d messages", c.dir, runs)
		}
		for _, other := range schedules {
			if other == schedule {
				t.Errorf("%s: an anchor under another key peels with the first anchor's schedule", c.dir)
			}
		}
		schedules = append(schedules, schedule)
	}
	if got := r.relay.m.peelsForward.Load() + r.relay.m.peelsReply.Load(); got != 2*(runs+3) {
		t.Errorf("%d layers peeled, want %d: some envelope failed to open", got, 2*(runs+3))
	}
	if got := r.relay.m.peelSeconds.Count(); got != 2*(runs+3) {
		t.Errorf("%d peel times observed, want %d: a node with a registry times every peel", got, 2*(runs+3))
	}
}

// echoKey is a stream's K_I and the schedule that opens its echoes.
type echoKey struct {
	key    crypt.Key
	sealer *crypt.Sealer
}

// oneHopAnchors mints k anchors as a relay installs them off the wire —
// bare, with no key-schedule cell — and for each, n envelopes that open at
// the anchor's one layer, an exit layer.
func (r *relayRig) oneHopAnchors(t testing.TB, k, n int) ([]tha.Anchor, [][]*core.Envelope) {
	t.Helper()
	gen, err := tha.NewGenerator([]byte("one-hop owner"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anchors, envs := make([]tha.Anchor, k), make([][]*core.Envelope, k)
	for i := range anchors {
		sec, err := gen.Generate(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		anchors[i] = tha.Anchor{HopID: sec.HopID, Key: sec.Key, PWHash: sec.PWHash}
		for j := 0; j < n; j++ {
			env, err := core.BuildForward(&core.Tunnel{Hops: []tha.Secret{sec}}, nil, NodeID(sinkAddr), []byte("one layer"), r.strm)
			if err != nil {
				t.Fatal(err)
			}
			envs[i] = append(envs[i], env)
		}
	}
	return anchors, envs
}

// peel is the relay's hop step short of the send: find the anchor, open the
// envelope's layer with it.
func (r *relayRig) peel(t testing.TB, env *core.Envelope) {
	a, ok := r.relay.peelAnchor(env.HopID)
	if !ok {
		t.Fatalf("no anchor for hop %s", env.HopID.Short())
	}
	if _, err := env.Peel(a); err != nil {
		t.Fatal(err)
	}
}

// TestRelayDerivesEachKeyOnce: an anchor's first peel derives its schedule
// into the relay's spare cell and the second adopts that cell, so an anchor
// peeled three times derives one schedule — the held record's from the
// second peel on is the first peel's, neither moved nor re-derived.
func TestRelayDerivesEachKeyOnce(t *testing.T) {
	// One derivation, the AES cipher and the GCM, and the new spare cell
	// the anchor's first peel takes, the last anchor's having been adopted.
	// Deriving again, as a throwaway schedule at the first peel did, adds 2.
	const maxAllocs = 3

	const runs = 100
	r := newRelayRig(t)
	anchors, envs := r.oneHopAnchors(t, runs+2, 3)
	for _, a := range anchors {
		r.relay.installAnchor(a)
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		for _, env := range envs[next] {
			r.peel(t, env)
		}
		next++
	})
	if got > maxAllocs {
		t.Errorf("%.1f allocations for an anchor's three peels, want <= %d", got, maxAllocs)
	}

	hop := anchors[next].HopID
	r.peel(t, envs[next][0])
	if h := r.relay.anchors[hop]; h.HasSealerCache() || r.relay.spare.HopID != hop {
		t.Fatal("the first peel did not derive into the spare alone")
	}
	cell := r.relay.spare.Sealer()
	schedule := *cell
	for peel := 2; peel <= 3; peel++ {
		r.peel(t, envs[next][peel-1])
		h := r.relay.anchors[hop]
		if !h.HasSealerCache() || h.Sealer() != cell || *h.Sealer() != schedule {
			t.Fatalf("peel %d: the held record does not peel with the schedule its first peel derived", peel)
		}
		if r.relay.spare.HasSealerCache() {
			t.Fatalf("peel %d: the spare still holds a schedule its held record adopted", peel)
		}
	}

	// Two anchors interleaved: the second's first peel re-keys the spare,
	// so the first's second peel derives into a cell of its own and the
	// second's adopts the spare. Every layer opens under its own key.
	pair, pairEnvs := r.oneHopAnchors(t, 2, 3)
	for _, a := range pair {
		r.relay.installAnchor(a)
	}
	for i := 0; i < 3; i++ {
		r.peel(t, pairEnvs[0][i])
		r.peel(t, pairEnvs[1][i])
	}
	h0, h1 := r.relay.anchors[pair[0].HopID], r.relay.anchors[pair[1].HopID]
	if !h0.HasSealerCache() || !h1.HasSealerCache() || h0.Sealer() == h1.Sealer() || r.relay.spare.HasSealerCache() {
		t.Error("interleaved anchors do not each hold a schedule of their own, with the spare adopted")
	}
}

// TestRelayRekeysItsSpare: anchors that each peel one message — tunnel
// formation — leave every held record without a schedule, and the relay
// with one beyond them: the spare, re-keyed in place at each first peel,
// so a peel costs the derivation and nothing else.
func TestRelayRekeysItsSpare(t *testing.T) {
	// The AES cipher and the GCM, derived into the spare cell.
	const maxAllocs = 2

	const runs = 100
	r := newRelayRig(t)
	anchors, envs := r.oneHopAnchors(t, runs+2, 1)
	for _, a := range anchors {
		r.relay.installAnchor(a)
	}
	r.peel(t, envs[0][0]) // makes the spare cell
	cell := r.relay.spare.Sealer()
	next := 1
	if got := testing.AllocsPerRun(runs, func() { r.peel(t, envs[next][0]); next++ }); got > maxAllocs {
		t.Errorf("%.1f allocations per one-message anchor's peel, want <= %d", got, maxAllocs)
	}
	for i, a := range anchors {
		if h := r.relay.anchors[a.HopID]; h.peels != 1 || h.HasSealerCache() {
			t.Fatalf("anchor %d of %d, peeled once, holds a key schedule (peels %d)", i, len(anchors), h.peels)
		}
	}
	if r.relay.spare.HopID != anchors[runs+1].HopID || r.relay.spare.Sealer() != cell {
		t.Error("the spare is not the first cell, keyed to the last anchor peeled")
	}
}

// exitRequest returns a stream request addressed to the rig's relay as
// responder — the exit payload as the exit hop hands it over — and the key
// that opens its echoes. The responder only reads a request, so one can be
// delivered any number of times. The reply tunnel starts at the sink, so
// each echo surfaces there as a ReplyEnvelope.
func (r *relayRig) exitRequest(t testing.TB, seq uint32) (*DataMsg, echoKey) {
	t.Helper()
	key, err := crypt.NewKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.BuildReply(r.rp, []transport.Addr{sinkAddr, sinkAddr}, NodeID(sinkAddr), r.strm)
	if err != nil {
		t.Fatal(err)
	}
	req := appendRequest(nil, 9, seq, false, key, rt.Encode(), []byte("sixty-four bytes or so of stream chunk, give or take a few more"))
	return &DataMsg{Dest: r.relay.ID, Payload: req}, echoKey{key, crypt.NewSealer(key)}
}

// echoAtSink returns the chunk number of the next echo at the sink, opened
// under k.
func (r *relayRig) echoAtSink(t testing.TB, k echoKey) int {
	t.Helper()
	env, ok := r.await(t).(*core.ReplyEnvelope)
	if !ok {
		t.Fatal("the responder sent something other than a reply envelope")
	}
	seq, _, ok := openEcho(k.sealer, 9, env.Data)
	if !ok {
		t.Fatal("the echo does not open under its request's key")
	}
	return seq
}

// TestExitEchoKeyScheduleOncePerStream pins the responder's one-entry
// cache, which holds its schedule by value — two Sealers are equal exactly
// when they share one derived AES-GCM state. A stream's chunks all carry
// one key, and from the second on nothing is derived; a request under
// another key derives and takes the entry over, and its echo opens under
// that key alone; the first key again derives again.
func TestExitEchoKeyScheduleOncePerStream(t *testing.T) {
	// Responder bookkeeping per chunk: none — the reply tunnel is parsed
	// where it lies, and the echo buffer and its envelope are the
	// responder's own. The rig's co-hosted sink adds its round trip: the
	// buffer the envelope is encoded into and the decoder it is decoded by.
	// Measured 2.
	const maxEchoAllocs = 2
	// What deriving a schedule by value costs: the AES cipher and the GCM.
	const deriveAllocs = 2

	const runs = 50
	r := newRelayRig(t)
	first, firstKey := r.exitRequest(t, 1)
	other, otherKey := r.exitRequest(t, 2)

	r.relay.Deliver(sinkAddr, first)
	if got := r.echoAtSink(t, firstKey); got != 1 {
		t.Fatalf("echo for chunk %d, want 1", got)
	}
	cached := r.relay.echoSealer
	delivered := 1
	same := testing.AllocsPerRun(runs, func() { r.relay.Deliver(sinkAddr, first); delivered++ })
	for i := 1; i < delivered; i++ {
		r.echoAtSink(t, firstKey)
	}
	if same > maxEchoAllocs {
		t.Errorf("%.1f allocations per echo from a stream's second chunk on, want <= %d", same, maxEchoAllocs)
	}
	if got := testing.AllocsPerRun(runs, func() { r.relay.echoSealerFor(firstKey.key) }); got != 0 {
		t.Errorf("%.0f allocations to look a stream's key up again, want 0: its schedule was derived anew", got)
	}
	if r.relay.echoSealer != cached {
		t.Errorf("the cached schedule was replaced within one stream of %d chunks", delivered)
	}

	r.relay.Deliver(sinkAddr, other)
	env, ok := r.await(t).(*core.ReplyEnvelope)
	if !ok {
		t.Fatal("the responder sent something other than a reply envelope")
	}
	if _, _, ok := openEcho(firstKey.sealer, 9, bytes.Clone(env.Data)); ok {
		t.Error("the echo of a request under another key opens under the first key")
	}
	if seq, _, ok := openEcho(otherKey.sealer, 9, env.Data); !ok || seq != 2 {
		t.Fatalf("the echo does not open under its request's key as chunk 2 (chunk %d, opened %v)", seq, ok)
	}
	if r.relay.echoSealer == cached || r.relay.echoKey != otherKey.key {
		t.Error("a request under another key was answered from the first key's entry")
	}
	otherCached := r.relay.echoSealer
	r.relay.Deliver(sinkAddr, first) // the first stream again, its entry gone
	if got := r.echoAtSink(t, firstKey); got != 1 {
		t.Fatalf("echo for chunk %d, want 1", got)
	}
	if r.relay.echoSealer == cached || r.relay.echoSealer == otherCached {
		t.Error("the first key's schedule was not derived again after another key took the entry")
	}

	// Counted: requests that alternate keys derive on every one.
	reqs, keys := []*DataMsg{other, first}, []echoKey{otherKey, firstKey}
	alternated := 0
	alternating := testing.AllocsPerRun(runs, func() { r.relay.Deliver(sinkAddr, reqs[alternated%2]); alternated++ })
	for i := 0; i < alternated; i++ {
		if got, want := r.echoAtSink(t, keys[i%2]), 2-i%2; got != want {
			t.Fatalf("echo for chunk %d, want %d", got, want)
		}
	}
	if alternating < same+deriveAllocs {
		t.Errorf("%.1f allocations per echo when the key alternates, %.1f when it stays: a new key is answered without deriving its schedule", alternating, same)
	}
	if got := r.relay.m.exitPayloads.Load(); got != uint64(delivered+2+alternated) {
		t.Errorf("%d exit payloads handled, want %d", got, delivered+2+alternated)
	}
}

// TestAnchorInstallFirstWriterWins: every earlier hop of a tunnel learns
// the next hopid, so an install that could overwrite would hand any of
// them the hop's key. The identical record again — a retransmitted
// AnchorMsg — is re-acknowledged and keeps the cached schedule; a
// different record under a held hopid is refused, unacknowledged, and
// counted.
func TestAnchorInstallFirstWriterWins(t *testing.T) {
	r := newRelayRig(t)
	a := r.fw.Hops[0].Anchor
	r.install(t, a)
	for _, env := range r.forwards(t, 2) { // two peels: the schedule is cached
		r.relay.Deliver(sinkAddr, env)
		r.await(t)
	}
	cached := r.relay.anchors[a.HopID]

	r.install(t, a) // the retransmission path: acknowledged again
	if r.relay.anchors[a.HopID] != cached {
		t.Fatal("an idempotent re-install dropped the cached key schedule")
	}

	for name, evil := range map[string]tha.Anchor{
		"key":    {HopID: a.HopID, Key: r.fw.Hops[1].Key, PWHash: a.PWHash},
		"pwhash": {HopID: a.HopID, Key: a.Key, PWHash: r.fw.Hops[1].PWHash},
	} {
		r.relay.Deliver(sinkAddr, &AnchorMsg{Anchor: evil})
		r.quiet(t) // not acknowledged
		if r.relay.anchors[a.HopID] != cached {
			t.Fatalf("an install with a different %s replaced a held anchor", name)
		}
	}
	if got := r.relay.m.anchorRejects.Load(); got != 2 {
		t.Errorf("tap_node_anchor_rejects_total = %d, want 2", got)
	}
	if got := r.relay.m.anchorInstalls.Load(); got != 2 {
		t.Errorf("tap_node_anchor_installs_total = %d, want 2 (the install and its retransmission)", got)
	}
	if r.relay.AnchorCount() != 1 {
		t.Errorf("relay holds %d anchors, want 1", r.relay.AnchorCount())
	}

	// The tunnel still works under its original key.
	env := r.forwards(t, 1)[0]
	r.relay.Deliver(sinkAddr, env)
	if _, ok := r.await(t).(*core.Envelope); !ok {
		t.Fatal("the held anchor no longer peels its tunnel's traffic")
	}
}

// TestExitRefusesWrongLengthEchoKey: a request whose key blob is not a key
// is refused, not answered under the zero-padded or truncated key that
// copying it would make.
func TestExitRefusesWrongLengthEchoKey(t *testing.T) {
	r := newRelayRig(t)
	good, _ := r.exitRequest(t, 1)
	rd := wire.NewReader(good.Payload)
	sid, seq, fin, key, rt, chunk := rd.Uint64(), rd.Uint32(), rd.Byte(), rd.Blob(), rd.Blob(), rd.Blob()
	if rd.Done() != nil {
		t.Fatal("the rig's own request does not parse")
	}
	for name, k := range map[string][]byte{"empty": nil, "short": key[:len(key)-1], "long": append(bytes.Clone(key), 0)} {
		w := wire.NewWriter(len(good.Payload) + 1)
		w.Uint64(sid)
		w.Uint32(seq)
		w.Byte(fin)
		w.Blob(k)
		w.Blob(rt)
		w.Blob(chunk)
		r.relay.Deliver(sinkAddr, &DataMsg{Dest: r.relay.ID, Payload: w.Bytes()})
		r.quiet(t)
		if r.relay.echoSealer != (crypt.Sealer{}) {
			t.Fatalf("a request with a %s key blob had a key schedule derived for it", name)
		}
	}
	r.relay.Deliver(sinkAddr, good)
	if _, ok := r.await(t).(*core.ReplyEnvelope); !ok {
		t.Fatal("the well-formed request was not answered")
	}
}

// tailReply returns a reply envelope whose one layer the rig's relay
// peels to find the bid — the sink's node ID — and no hint: the message a
// tail hop must resolve through its membership index.
func (r *relayRig) tailReply(t testing.TB) *core.ReplyEnvelope {
	t.Helper()
	r.install(t, r.rp.Hops[0].Anchor)
	rt, err := core.BuildReply(&core.Tunnel{Hops: r.rp.Hops[:1]}, []transport.Addr{relayAddr}, NodeID(sinkAddr), r.strm)
	if err != nil {
		t.Fatal(err)
	}
	return &core.ReplyEnvelope{Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: []byte("sealed echo")}
}

// afterRetry returns once a retry parked before the call has run.
func (r *relayRig) afterRetry() {
	done := make(chan struct{})
	r.relay.tr.Schedule(resolveDelay+resolveDelay/2, transport.Func(func() { close(done) }))
	<-done
}

// TestSendParksUntilTheMemberIsKnown is the lagging view: the relay peels
// a reply tail naming a member its peer table does not hold yet. The
// message waits — nothing is sent, nothing dropped — and goes out, once,
// on the first retry after SetPeers brings the member.
func TestSendParksUntilTheMemberIsKnown(t *testing.T) {
	r := newRelayRig(t)
	r.relay.Deliver(sinkAddr, r.tailReply(t))
	r.quiet(t)
	if got := r.relay.m.parkRetries.Load(); got != 1 {
		t.Fatalf("tap_node_park_retries_total = %d, want 1: the unresolved tail was not parked", got)
	}
	r.relay.SetPeers(map[transport.Addr]string{sinkAddr: "hosted on the relay's own transport"})
	env, ok := r.await(t).(*core.ReplyEnvelope)
	if !ok || env.Target != NodeID(sinkAddr) || env.Hint != transport.NoAddr {
		t.Fatalf("the sink received %+v, want the reply addressed to its node ID", env)
	}
	r.afterRetry()
	r.quiet(t) // delivered once
	if got := r.relay.m.resolveDrops.Load(); got != 0 {
		t.Errorf("tap_node_resolve_drops_total = %d, want 0", got)
	}
}

// TestParkedTailKeepsItsBytes is the lending rule at send's park, over a
// real socket: a reply tail for a member the relay does not know yet
// arrives and parks, fifty more frames cross the same connection — through
// the read buffer the tail was decoded in — and only then does SetPeers
// bring the member. The sink must get the tail as the relay peeled it.
func TestParkedTailKeepsItsBytes(t *testing.T) {
	r := newRelayRig(t)
	hostport, err := r.relay.tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const senderAddr transport.Addr = 3
	sender := tcptransport.New(tcptransport.Config{Codec: Codec{}})
	t.Cleanup(sender.Close)
	sender.SetPeer(relayAddr, hostport)

	tail := r.tailReply(t)
	want := &core.ReplyEnvelope{Target: tail.Target, Hint: tail.Hint, Onion: bytes.Clone(tail.Onion), Data: bytes.Clone(tail.Data)}
	if err := want.Peel(r.rp.Hops[0].Anchor); err != nil {
		t.Fatal(err)
	}
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	delivered := r.relay.tr.Stats().Delivered
	sender.Send(senderAddr, relayAddr, tail)
	waitUntil("the tail to park", func() bool { return r.relay.m.parkRetries.Load() >= 1 })
	// Data for a node the relay is not, which it logs and drops: frames
	// larger than the tail's, so any that starts a read overwrites all of it.
	scribble := &DataMsg{Dest: NodeID(99), Payload: bytes.Repeat([]byte{0x5a}, 2*tail.SizeBytes())}
	const frames = 50
	for i := 0; i < frames; i++ {
		sender.Send(senderAddr, relayAddr, scribble)
	}
	waitUntil("the frames behind the tail to be read", func() bool { return r.relay.tr.Stats().Delivered >= delivered+1+frames })

	r.relay.SetPeers(map[transport.Addr]string{sinkAddr: "hosted on the relay's own transport"})
	if got := r.await(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("the parked tail reached the sink as %+v, want %+v: it was parked without a copy of its bytes", got, want)
	}
}

// TestSendGivesUp pins send's two ends. An ID still unknown when the retry
// budget is spent is dropped and counted — and its last retry must ask the
// index again, not send to the zero Addr a failed lookup returned, which is
// a valid address (here, a live one). An address that never became
// dialable is sent to anyway, for the transport to count.
func TestSendGivesUp(t *testing.T) {
	r := newRelayRig(t)
	r.relay.tr.Attach(0, transport.HandlerFunc(func(_ transport.Addr, m transport.Message) {
		t.Errorf("address 0 received a %T meant for an unresolved node ID", m)
	}))
	stranger, msg := NodeID(77), &AnchorAck{HopID: NodeID(78)}

	r.relay.send(transport.NoAddr, stranger, msg, resolveRetries)
	if drops, parks := r.relay.m.resolveDrops.Load(), r.relay.m.parkRetries.Load(); drops != 1 || parks != 0 {
		t.Fatalf("out of retries: %d resolve drops and %d parks, want 1 and 0", drops, parks)
	}
	r.relay.send(transport.NoAddr, stranger, msg, resolveRetries-1)
	r.afterRetry()
	if drops, parks := r.relay.m.resolveDrops.Load(), r.relay.m.parkRetries.Load(); drops != 2 || parks != 1 {
		t.Fatalf("one retry left: %d resolve drops and %d parks, want 2 and 1", drops, parks)
	}
	if got := r.relay.tr.Stats().Sent; got != 0 {
		t.Fatalf("%d messages reached the transport for an ID nobody holds", got)
	}

	const undialable = transport.Addr(9)
	r.relay.send(undialable, id.ID{}, msg, resolveRetries)
	if st := r.relay.tr.Stats(); st.Sent != 1 || st.Dropped != 1 {
		t.Errorf("an undialable address out of retries: transport sent %d, dropped %d, want 1 and 1", st.Sent, st.Dropped)
	}
	r.quiet(t)
}

// pipeDialer hands the transport one end of a net.Pipe and sends what
// arrives on the other, one whole frame at a time, to frames.
type pipeDialer struct{ frames chan []byte }

func (d pipeDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		for {
			hdr := make([]byte, wire.FrameHeaderSize)
			if _, err := io.ReadFull(server, hdr); err != nil {
				return
			}
			size, err := wire.FrameSize(hdr)
			if err != nil {
				return
			}
			frame := append(hdr, make([]byte, size-len(hdr))...)
			if _, err := io.ReadFull(server, frame[len(hdr):]); err != nil {
				return
			}
			d.frames <- frame
		}
	}()
	return client, nil
}

// TestFrameBytesGolden holds the wire format to the byte: the frame
// tcptransport.Send puts on a connection for one core.Envelope, against
// the bytes the same call produced before the send path was rebuilt
// around a single buffer (taken at commit 60fd3db).
func TestFrameBytesGolden(t *testing.T) {
	const golden = "5450010300000043" + // "TP", version 1, kindForward, 67-byte payload
		"0000000000000006" + "0000000000000001" + // src 6, dst 1
		"285a4d48df3d6649adb95a3efd09a57cad89036c" + // hopid = NodeID(1)
		"0000000000000004" + // hint 4
		"12" + "7365616c65642d6f6e696f6e2d6279746573" + // blob "sealed-onion-bytes"
		"00000003" // pad 3
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	d := pipeDialer{frames: make(chan []byte, 1)}
	tr := tcptransport.New(tcptransport.Config{Codec: Codec{}, Dialer: d})
	t.Cleanup(tr.Close)
	tr.SetPeer(1, "pipe")
	tr.Send(6, 1, &core.Envelope{HopID: NodeID(1), Hint: 4, Sealed: []byte("sealed-onion-bytes"), Pad: 3})
	select {
	case got := <-d.frames:
		if !bytes.Equal(got, want) {
			t.Fatalf("frame bytes changed:\n got %x\nwant %x", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no frame reached the connection")
	}
}

// drainSink moves the rig's sink off the relay's transport to a member
// behind a socket that reads and discards: what the relay sends it is then
// the deployed step's last part, a frame encoded into a buffer the peer's
// writer recycles, and nothing comes back.
func (r *relayRig) drainSink(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, c)
				c.Close()
			}()
		}
	}()
	r.relay.tr.Detach(sinkAddr)
	r.relay.SetPeers(map[transport.Addr]string{sinkAddr: ln.Addr().String()})
}

// BenchmarkRelayForward is the deployed relay's steady state: Deliver of
// a forward envelope on an anchor whose key schedule is cached — open one
// layer in place, pad, frame the inner envelope for the next hop's socket.
// It sits in tapbench's hot group, where CI's allocation gate would catch
// a per-message key schedule (22 allocations) coming back.
func BenchmarkRelayForward(b *testing.B) {
	r := newRelayRig(b)
	r.install(b, r.fw.Hops[0].Anchor)
	tmpl := r.forwards(b, 1)[0]
	r.drainSink(b)

	// The relay consumes what it is delivered — it peels the sealed bytes
	// in place and sends the same envelope onward — so each iteration
	// restores both.
	env := new(core.Envelope)
	buf := make([]byte, len(tmpl.Sealed))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*env = core.Envelope{HopID: tmpl.HopID, Hint: tmpl.Hint, Sealed: buf[:copy(buf, tmpl.Sealed)]}
		r.relay.Deliver(sinkAddr, env)
	}
	b.StopTimer()
	if got := r.relay.m.peelsForward.Load(); got != uint64(b.N) {
		b.Fatalf("%d of %d envelopes opened", got, b.N)
	}
}

// BenchmarkExitEcho is the deployed responder's steady state: Deliver of
// a stream's request after its first — parse it, seal the echo under the
// cached schedule of the stream's key, frame it for the reply tunnel's
// first hop. In tapbench's hot group beside BenchmarkRelayForward, for the
// same reason: a key schedule per chunk (22 allocations) would show in
// CI's allocation gate.
func BenchmarkExitEcho(b *testing.B) {
	r := newRelayRig(b)
	req, _ := r.exitRequest(b, 1)
	r.drainSink(b)
	r.relay.Deliver(sinkAddr, req) // the stream's first chunk derives the schedule

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.relay.Deliver(sinkAddr, req)
	}
	b.StopTimer()
	if got := r.relay.m.exitPayloads.Load(); got != uint64(b.N)+1 {
		b.Fatalf("%d of %d requests handled", got, b.N+1)
	}
}

// TestRequestEncodesWithoutRegrowing: the buffer RoundTripStream sizes for
// its requests — the fixed fields, the key blob and both length prefixes at
// the widths a reply tunnel and a bulk chunk give them — takes one without
// growing, so a stream's requests are all encoded where the first was.
func TestRequestEncodesWithoutRegrowing(t *testing.T) {
	var key crypt.Key
	rt := make([]byte, 300)       // a two-hop reply tunnel encodes to about this; two-byte prefix
	chunk := make([]byte, 32<<10) // tcp_bulk's chunk; three-byte prefix
	buf := make([]byte, 0, requestOverhead+len(rt)+len(chunk))
	var req []byte
	if got := testing.AllocsPerRun(20, func() { req = appendRequest(buf[:0], 9, 1, false, key, rt, chunk) }); got != 0 {
		t.Errorf("%.0f allocations to encode one request into a buffer sized for it, want 0", got)
	}
	if &req[0] != &buf[:1][0] {
		t.Error("the request outgrew the buffer sized for it")
	}
	if want := 8 + 4 + 1 + 17 + 2 + len(rt) + 3 + len(chunk); len(req) != want {
		t.Errorf("request of %d bytes, want %d", len(req), want)
	}
}
