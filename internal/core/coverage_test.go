package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/simnet"
)

// TestUnrefreshedTunnelIsBasic pins what the callers that no longer fork on
// "hinted or basic" rest on: before RefreshHints a tunnel hints NoAddr
// everywhere, and the hinted builders produce the basic message byte for
// byte on the same stream seed.
func TestUnrefreshedTunnelIsBasic(t *testing.T) {
	s := newSys(t, 200, 3, 80)
	in := s.readyInitiator(t, "a", 8)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tun.Hops {
		if a := tun.Hint(i); a != simnet.NoAddr {
			t.Fatalf("unrefreshed hop %d hints %d", i, a)
		}
	}
	dest, payload := id.HashString("d"), []byte("payload")
	basic, err := BuildForward(tun, nil, dest, payload, s.root.Split("f"))
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := BuildForwardHinted(tun, dest, payload, s.root.Split("f"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hinted, basic) {
		t.Fatalf("unrefreshed BuildForwardHinted differs from BuildForward(t, nil, …)")
	}
	basicRT, err := BuildReply(tun, nil, dest, s.root.Split("r"))
	if err != nil {
		t.Fatal(err)
	}
	hintedRT, err := BuildReplyHinted(tun, dest, s.root.Split("r"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hintedRT, basicRT) {
		t.Fatalf("unrefreshed BuildReplyHinted differs from BuildReply(t, nil, …)")
	}
}

func TestRefreshHintsFailsOnLostAnchor(t *testing.T) {
	s := newSys(t, 200, 3, 81)
	in := s.readyInitiator(t, "a", 8)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	s.mgr.BeginBatch()
	for _, addr := range s.dir.ReplicaAddrs(tun.Hops[1].HopID) {
		if err := s.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
	}
	s.mgr.EndBatch()
	if err := tun.RefreshHints(s.svc); !errors.Is(err, ErrHopLost) {
		t.Fatalf("RefreshHints err = %v, want ErrHopLost", err)
	}
	// Partial is usable: the hops before the lost one are hinted, the rest
	// fall back to DHT routing.
	if tun.Hint(0) == simnet.NoAddr || tun.Hint(1) != simnet.NoAddr || tun.Hint(2) != simnet.NoAddr {
		t.Fatalf("hints after a partial refresh = %d, %d, %d", tun.Hint(0), tun.Hint(1), tun.Hint(2))
	}
}

func TestBuildHintedHelpers(t *testing.T) {
	s := newSys(t, 300, 3, 82)
	in := s.readyInitiator(t, "a", 20)
	fwd, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := fwd.RefreshHints(s.svc); err != nil {
		t.Fatal(err)
	}
	if err := rep.RefreshHints(s.svc); err != nil {
		t.Fatal(err)
	}
	env, err := BuildForwardHinted(fwd, id.HashString("d"), []byte("x"), s.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	if env.Hint == simnet.NoAddr {
		t.Fatalf("hinted build produced no first-hop hint")
	}
	res, err := s.svc.DeliverForward(in.Node().Ref().Addr, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.HintHits != 3 {
		t.Fatalf("hint hits %d", res.Stats.HintHits)
	}

	bid := in.NewBid()
	rt, err := BuildReplyHinted(rep, bid, s.root.Split("r"))
	if err != nil {
		t.Fatal(err)
	}
	if rt.FirstHint == simnet.NoAddr {
		t.Fatalf("hinted reply build produced no first-hop hint")
	}
	rres, err := s.svc.DeliverReply(s.ov.RandomLive(s.root.Split("resp")).Ref().Addr, &ReplyEnvelope{
		Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: []byte("d"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rres.LandedNode.ID != in.Node().ID() {
		t.Fatalf("hinted reply lost")
	}
	if rres.Stats.HintHits == 0 {
		t.Fatalf("reply path used no hints")
	}
}

func TestFormDisjointTunnels(t *testing.T) {
	s := newSys(t, 250, 3, 83)
	in := s.readyInitiator(t, "a", 12)
	tunnels, err := in.FormDisjointTunnels(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tunnels) != 3 {
		t.Fatalf("got %d tunnels", len(tunnels))
	}
	seen := map[id.ID]bool{}
	for _, tun := range tunnels {
		for _, h := range tun.Hops {
			if seen[h.HopID] {
				t.Fatalf("tunnels share anchor %s", h.HopID.Short())
			}
			seen[h.HopID] = true
		}
	}
	// Pool too small for one more disjoint set.
	if _, err := in.FormDisjointTunnels(4, 4); err == nil {
		t.Fatalf("oversubscribed disjoint formation accepted")
	}
}

func TestServiceAccessor(t *testing.T) {
	s := newSys(t, 100, 3, 84)
	in := s.newInitiator(t, "a")
	if in.Service() != s.svc {
		t.Fatalf("Service accessor mismatch")
	}
}

func TestDeliverReplyFromDeadResponder(t *testing.T) {
	s := newSys(t, 200, 3, 85)
	in := s.readyInitiator(t, "a", 10)
	rep, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := BuildReply(rep, nil, in.NewBid(), s.root.Split("r"))
	if err != nil {
		t.Fatal(err)
	}
	dead := s.ov.RandomLive(s.root.Split("dead"))
	if dead.ID() == in.Node().ID() {
		t.Skip("degenerate draw")
	}
	if err := s.ov.Fail(dead.Ref().Addr); err != nil {
		t.Fatal(err)
	}
	if _, err := s.svc.DeliverReply(dead.Ref().Addr, &ReplyEnvelope{
		Target: rt.First, Onion: rt.Onion, Hint: simnet.NoAddr, Data: []byte("d"),
	}); err == nil {
		t.Fatalf("reply from dead responder accepted")
	}
}

func TestBuildForwardValidation(t *testing.T) {
	s := newSys(t, 100, 3, 86)
	in := s.readyInitiator(t, "a", 6)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	empty := &Tunnel{}
	if _, err := BuildForward(empty, nil, id.HashString("d"), nil, s.root); err == nil {
		t.Fatalf("empty tunnel accepted")
	}
	if _, err := BuildForward(tun, make([]simnet.Addr, 2), id.HashString("d"), nil, s.root); err == nil {
		t.Fatalf("hint count mismatch accepted")
	}
	if _, err := BuildReply(empty, nil, id.HashString("b"), s.root); err == nil {
		t.Fatalf("empty reply tunnel accepted")
	}
	if _, err := BuildReply(tun, make([]simnet.Addr, 1), id.HashString("b"), s.root); err == nil {
		t.Fatalf("reply hint mismatch accepted")
	}
}

// TestBuildForwardAllocatesTheOnionAndItsEnvelope: building a message or a
// reply tunnel allocates what the caller keeps — the one buffer and the
// envelope or ReplyTunnel — at every tunnel length: the layout needs no
// tables. A tunnel longer than any the experiments build (11 hops) still
// builds the reference's bytes.
func TestBuildForwardAllocatesTheOnionAndItsEnvelope(t *testing.T) {
	s := rng.New(86)
	dest := id.HashString("d")
	payload := make([]byte, 64) // small enough that no layer needs a cipher stream
	builds := map[string]func(*Tunnel, []simnet.Addr) error{
		"BuildForward (buffer, envelope)": func(tun *Tunnel, hints []simnet.Addr) error {
			_, err := BuildForward(tun, hints, dest, payload, s)
			return err
		},
		"BuildReply (buffer, ReplyTunnel)": func(tun *Tunnel, hints []simnet.Addr) error {
			_, err := BuildReply(tun, hints, dest, s)
			return err
		},
	}
	for name, build := range builds {
		for _, l := range []int{3, 8, 11} {
			tun := handTunnel(t, l, s)
			hints := make([]simnet.Addr, l)
			if err := build(tun, hints); err != nil { // derive the hop schedules
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(100, func() {
				if err := build(tun, hints); err != nil {
					t.Fatal(err)
				}
			})
			if got != 2 {
				t.Errorf("l=%d: %.0f allocations per %s, want 2", l, got, name)
			}
		}
	}

	tun := handTunnel(t, 11, s)
	seed := s.Uint64()
	want, err := referenceBuildForward(tun, nil, dest, payload, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildForward(tun, nil, dest, payload, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if got.HopID != want.HopID || !bytes.Equal(got.Sealed, want.Sealed) {
		t.Fatalf("l=11: onion differs from the nested reference")
	}
}

// TestBuildForwardIntoWritesEveryByte: an envelope rebuilt in storage that
// held other bytes — 0xAA throughout, with room to spare — is the envelope
// BuildForward makes from a clone of the stream, byte for byte, laid out in
// that storage: seal writes every byte it reuses. Rebuilding allocates
// nothing.
func TestBuildForwardIntoWritesEveryByte(t *testing.T) {
	s := rng.New(87)
	dest := id.HashString("d")
	for _, l := range []int{1, 3, 8} {
		tun := handTunnel(t, l, s)
		hints := make([]simnet.Addr, l)
		for i := range hints {
			hints[i] = simnet.Addr(i + 1)
		}
		for _, size := range []int{0, 1, 64, 300, 32 << 10} {
			payload := make([]byte, size)
			s.Bytes(payload)
			seed := s.Uint64()
			want, err := BuildForward(tun, hints, dest, payload, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			dirty := bytes.Repeat([]byte{0xAA}, len(want.Sealed)+17)
			got := Envelope{HopID: id.HashString("stale"), Hint: 99, Sealed: dirty[:3], Pad: 5}
			if err := BuildForwardInto(&got, tun, hints, dest, payload, rng.New(seed)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, *want) {
				t.Fatalf("l=%d, %d-byte payload: the envelope rebuilt in used storage differs from a fresh build", l, size)
			}
			if &got.Sealed[0] != &dirty[0] {
				t.Fatalf("l=%d, %d-byte payload: storage of sufficient capacity was not reused", l, size)
			}
			stream := rng.New(seed)
			if n := testing.AllocsPerRun(20, func() {
				if err := BuildForwardInto(&got, tun, hints, dest, payload, stream); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("l=%d, %d-byte payload: %.0f allocations to rebuild an envelope, want 0", l, size, n)
			}
		}
	}
}

// TestBuildReplyIntoWritesEveryByte is TestBuildForwardIntoWritesEveryByte
// for the reply tunnel: one rebuilt over used storage is BuildReply's from
// a clone of the stream, byte for byte, laid out in that storage, and its
// encoding appended to a used buffer is Encode's. Rebuilding and
// re-encoding allocate nothing.
func TestBuildReplyIntoWritesEveryByte(t *testing.T) {
	s := rng.New(88)
	bid := id.HashString("bid")
	for _, l := range []int{1, 3, 8} {
		tun := handTunnel(t, l, s)
		hints := make([]simnet.Addr, l)
		for i := range hints {
			hints[i] = simnet.Addr(i + 1)
		}
		seed := s.Uint64()
		want, err := BuildReply(tun, hints, bid, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		dirty := bytes.Repeat([]byte{0xAA}, len(want.Onion)+17)
		got := ReplyTunnel{First: id.HashString("stale"), FirstHint: 99, Onion: dirty[:3]}
		if err := BuildReplyInto(&got, dirty, tun, hints, bid, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, *want) {
			t.Fatalf("l=%d: the reply tunnel rebuilt in used storage differs from a fresh build", l)
		}
		if &got.Onion[0] != &dirty[0] {
			t.Fatalf("l=%d: storage of sufficient capacity was not reused", l)
		}
		enc := bytes.Repeat([]byte{0xAA}, 5)
		if appended := got.AppendEncode(enc); !bytes.Equal(appended[:5], enc[:5]) || !bytes.Equal(appended[5:], want.Encode()) {
			t.Fatalf("l=%d: AppendEncode differs from Encode", l)
		}
		stream := rng.New(seed)
		if n := testing.AllocsPerRun(20, func() {
			if err := BuildReplyInto(&got, got.Onion, tun, hints, bid, stream); err != nil {
				t.Fatal(err)
			}
			enc = got.AppendEncode(enc[:0])
		}); n != 0 {
			t.Errorf("l=%d: %.0f allocations to rebuild and re-encode a reply tunnel, want 0", l, n)
		}
	}
}
