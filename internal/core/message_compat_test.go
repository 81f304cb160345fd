package core

// Wire-format compatibility tests for the single-buffer layered builders.
//
// BuildForward and BuildReply were rewritten from nested seal-and-copy
// loops into one-buffer in-place assembly. The functions below are frozen
// copies of the original nested builders; the tests hold the rewrites to
// byte equality with them across tunnel lengths, payload sizes, and hint
// modes, so the onion format deployed anchors expect can never drift.
//
// The borrowed-buffer tests pin the ownership contract the in-place peel
// relies on: delivery engines must never mutate an initiator-held
// envelope, because the reliability layer re-sends the same envelope on
// retransmit.

import (
	"bytes"
	"testing"

	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
	"tap/internal/wire"
)

// referenceBuildForward is the pre-rewrite nested BuildForward.
func referenceBuildForward(t *Tunnel, hints []simnet.Addr, dest id.ID, payload []byte, stream *rng.Stream) (*Envelope, error) {
	l := t.Length()
	if hints == nil {
		hints = make([]simnet.Addr, l)
		for i := range hints {
			hints[i] = simnet.NoAddr
		}
	}
	w := wire.NewWriter(1 + id.Size + len(payload) + 8)
	w.Byte(layerExit)
	w.ID(dest)
	w.Blob(payload)
	sealed, err := crypt.Seal(t.Hops[l-1].Key, stream, w.Bytes())
	if err != nil {
		return nil, err
	}
	for i := l - 2; i >= 0; i-- {
		w := wire.NewWriter(1 + id.Size + 8 + len(sealed) + 8)
		w.Byte(layerRelay)
		w.ID(t.Hops[i+1].HopID)
		w.Int64(int64(hints[i+1]))
		w.Blob(sealed)
		sealed, err = crypt.Seal(t.Hops[i].Key, stream, w.Bytes())
		if err != nil {
			return nil, err
		}
	}
	return &Envelope{HopID: t.Hops[0].HopID, Hint: hints[0], Sealed: sealed}, nil
}

// referenceBuildReply is the pre-rewrite nested BuildReply.
func referenceBuildReply(t *Tunnel, hints []simnet.Addr, bid id.ID, stream *rng.Stream) (*ReplyTunnel, error) {
	l := t.Length()
	if hints == nil {
		hints = make([]simnet.Addr, l)
		for i := range hints {
			hints[i] = simnet.NoAddr
		}
	}
	layerBody := func(next id.ID, hint simnet.Addr, rest []byte) []byte {
		w := wire.NewWriter(id.Size + 8 + len(rest) + 8)
		w.ID(next)
		w.Int64(int64(hint))
		w.Blob(rest)
		return w.Bytes()
	}
	fake := make([]byte, FakeOnionSize)
	stream.Bytes(fake)
	sealed, err := crypt.Seal(t.Hops[l-1].Key, stream, layerBody(bid, simnet.NoAddr, fake))
	if err != nil {
		return nil, err
	}
	for i := l - 2; i >= 0; i-- {
		sealed, err = crypt.Seal(t.Hops[i].Key, stream, layerBody(t.Hops[i+1].HopID, hints[i+1], sealed))
		if err != nil {
			return nil, err
		}
	}
	return &ReplyTunnel{First: t.Hops[0].HopID, FirstHint: hints[0], Onion: sealed}, nil
}

// handTunnel builds a tunnel of length l with random hop secrets, without
// an overlay.
func handTunnel(t *testing.T, l int, s *rng.Stream) *Tunnel {
	t.Helper()
	hops := make([]tha.Secret, l)
	for i := range hops {
		var hopID id.ID
		s.Bytes(hopID[:])
		key, err := crypt.NewKey(s)
		if err != nil {
			t.Fatal(err)
		}
		hops[i] = tha.Secret{Anchor: tha.Anchor{HopID: hopID, Key: key}}
	}
	return &Tunnel{Hops: hops}
}

func TestBuildForwardMatchesReference(t *testing.T) {
	s := rng.New(81)
	for _, l := range []int{1, 2, 3, 5, 8} {
		tun := handTunnel(t, l, s)
		var dest id.ID
		s.Bytes(dest[:])
		for _, size := range []int{0, 1, 127, 128, 500, 20_000} {
			payload := make([]byte, size)
			s.Bytes(payload)
			hintSets := [][]simnet.Addr{nil, make([]simnet.Addr, l)}
			for i := range hintSets[1] {
				hintSets[1][i] = simnet.Addr(i * 7)
			}
			for hi, hints := range hintSets {
				seed := s.Uint64()
				want, err := referenceBuildForward(tun, hints, dest, payload, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				got, err := BuildForward(tun, hints, dest, payload, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				if got.HopID != want.HopID || got.Hint != want.Hint {
					t.Fatalf("l=%d size=%d hints=%d: envelope header differs", l, size, hi)
				}
				if !bytes.Equal(got.Sealed, want.Sealed) {
					t.Fatalf("l=%d size=%d hints=%d: single-buffer onion differs from nested reference", l, size, hi)
				}
			}
		}
	}
}

func TestBuildReplyMatchesReference(t *testing.T) {
	s := rng.New(82)
	for _, l := range []int{1, 2, 3, 5, 8, 11} {
		tun := handTunnel(t, l, s)
		var bid id.ID
		s.Bytes(bid[:])
		hintSets := [][]simnet.Addr{nil, make([]simnet.Addr, l)}
		for i := range hintSets[1] {
			hintSets[1][i] = simnet.Addr(100 + i)
		}
		for hi, hints := range hintSets {
			seed := s.Uint64()
			want, err := referenceBuildReply(tun, hints, bid, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildReply(tun, hints, bid, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if got.First != want.First || got.FirstHint != want.FirstHint {
				t.Fatalf("l=%d hints=%d: reply header differs", l, hi)
			}
			if !bytes.Equal(got.Onion, want.Onion) {
				t.Fatalf("l=%d hints=%d: single-buffer reply onion differs from nested reference", l, hi)
			}
		}
	}
}

// TestLayerNoncesNeverRepeatPerHop guards the rule AES-GCM rests on
// (DESIGN §9): no hop key seals two layers under one nonce, forward and
// reply traffic together. One tunnel and one rng stream build forward
// messages and reply tunnels in turn; every layer is peeled with its
// hop's anchor, and the nonce it arrived under is recorded against the
// hopid.
func TestLayerNoncesNeverRepeatPerHop(t *testing.T) {
	const builds = 10_000
	s := rng.New(85)
	tun := handTunnel(t, 3, s)
	stream := s.Split("onions")
	var dest, bid id.ID
	s.Bytes(dest[:])
	s.Bytes(bid[:])

	type use struct {
		hop   id.ID
		nonce [crypt.NonceSize]byte
	}
	seen := make(map[use]int, 2*builds*tun.Length())
	record := func(build int, hop id.ID, sealed []byte) {
		t.Helper()
		u := use{hop: hop}
		copy(u.nonce[:], sealed)
		if first, dup := seen[u]; dup {
			t.Fatalf("hop %s sealed build %d under build %d's nonce %x", hop.Short(), build, first, u.nonce)
		}
		seen[u] = build
	}
	for i := 0; i < builds; i++ {
		env, err := BuildForward(tun, nil, dest, []byte("nonce probe"), stream)
		if err != nil {
			t.Fatal(err)
		}
		for h, hop := range tun.Hops {
			if env.HopID != hop.HopID {
				t.Fatalf("build %d: forward layer %d addressed to %s", i, h, env.HopID.Short())
			}
			record(i, hop.HopID, env.Sealed)
			if _, err := env.Peel(hop.Anchor); err != nil {
				t.Fatalf("build %d: forward layer %d: %v", i, h, err)
			}
		}

		rt, err := BuildReply(tun, nil, bid, stream)
		if err != nil {
			t.Fatal(err)
		}
		renv := &ReplyEnvelope{Target: rt.First, Onion: rt.Onion}
		for h, hop := range tun.Hops {
			if renv.Target != hop.HopID {
				t.Fatalf("build %d: reply layer %d addressed to %s", i, h, renv.Target.Short())
			}
			record(i, hop.HopID, renv.Onion)
			if err := renv.Peel(hop.Anchor); err != nil {
				t.Fatalf("build %d: reply layer %d: %v", i, h, err)
			}
		}
		if renv.Target != bid {
			t.Fatalf("build %d: reply tunnel ends at %s, want the bid", i, renv.Target.Short())
		}
	}
	if want := 2 * builds * tun.Length(); len(seen) != want {
		t.Fatalf("%d (hopid, nonce) pairs recorded, want %d", len(seen), want)
	}
}

// TestDeliverLeavesEnvelopeIntact pins the retransmit contract: the
// walker peels on its own copy, so delivering the same envelope twice
// works and the envelope bytes never change.
func TestDeliverLeavesEnvelopeIntact(t *testing.T) {
	s := newSys(t, 150, 3, 84)
	in := s.readyInitiator(t, "borrow", 30)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	dest := id.HashString("borrow-dest")
	env, err := BuildForward(tun, nil, dest, []byte("retransmit me"), s.root.Split("msg"))
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), env.Sealed...)
	for attempt := 0; attempt < 2; attempt++ {
		res, err := s.svc.DeliverForward(in.Node().Ref().Addr, env)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if string(res.Payload) != "retransmit me" {
			t.Fatalf("attempt %d: payload %q", attempt, res.Payload)
		}
		if !bytes.Equal(env.Sealed, before) {
			t.Fatalf("attempt %d: DeliverForward mutated env.Sealed", attempt)
		}
	}

	bid := in.NewBid()
	rt, err := BuildReply(tun, nil, bid, s.root.Split("reply"))
	if err != nil {
		t.Fatal(err)
	}
	renv := &ReplyEnvelope{Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: []byte("reply data")}
	beforeOnion := append([]byte(nil), renv.Onion...)
	from := s.ov.RandomLive(s.root.Split("responder")).Ref().Addr
	for attempt := 0; attempt < 2; attempt++ {
		res, err := s.svc.DeliverReply(from, renv)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if res.Target != bid {
			t.Fatalf("attempt %d: landed at %s, want bid", attempt, res.Target.Short())
		}
		if !bytes.Equal(renv.Onion, beforeOnion) {
			t.Fatalf("attempt %d: DeliverReply mutated renv.Onion", attempt)
		}
	}
}
