package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
)

// makeHops builds l standalone anchor secrets for codec-level properties
// (no overlay needed).
func makeHops(stream *rng.Stream, l int) []tha.Secret {
	g, err := tha.NewGenerator([]byte("prop"), stream)
	if err != nil {
		panic(err)
	}
	out := make([]tha.Secret, l)
	for i := range out {
		s, err := g.Generate(stream)
		if err != nil {
			panic(err)
		}
		out[i] = s
	}
	return out
}

// Property: for any payload and tunnel length 1..6, peeling the forward
// message layer by layer with the hop keys reproduces the exact layer
// sequence and payload of Figure 1.
func TestPropForwardLayeringRoundTrip(t *testing.T) {
	f := func(seed uint64, lRaw uint8, payload []byte, destRaw [20]byte) bool {
		l := int(lRaw%6) + 1
		stream := rng.New(seed)
		tun := &Tunnel{Hops: makeHops(stream, l)}
		dest := id.ID(destRaw)
		env, err := BuildForward(tun, nil, dest, payload, stream)
		if err != nil {
			return false
		}
		if env.HopID != tun.Hops[0].HopID {
			return false
		}
		sealed := env.Sealed
		for i := 0; i < l; i++ {
			layer, err := OpenForwardLayerInPlace(tun.Hops[i].Anchor, sealed)
			if err != nil {
				return false
			}
			if i == l-1 {
				return layer.IsExit && layer.Dest == dest && bytes.Equal(layer.Payload, payload)
			}
			if layer.IsExit || layer.Next != tun.Hops[i+1].HopID {
				return false
			}
			sealed = layer.Inner
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: a reply onion peels to exactly its hop sequence and
// terminates in the bid, with the fake onion left over.
func TestPropReplyOnionRoundTrip(t *testing.T) {
	f := func(seed uint64, lRaw uint8, bidRaw [20]byte) bool {
		l := int(lRaw%6) + 1
		stream := rng.New(seed)
		tun := &Tunnel{Hops: makeHops(stream, l)}
		bid := id.ID(bidRaw)
		rt, err := BuildReply(tun, nil, bid, stream)
		if err != nil {
			return false
		}
		if rt.First != tun.Hops[0].HopID {
			return false
		}
		onion := rt.Onion
		target := rt.First
		for i := 0; i < l; i++ {
			if target != tun.Hops[i].HopID {
				return false
			}
			next, _, rest, err := OpenReplyLayerInPlace(tun.Hops[i].Anchor, onion)
			if err != nil {
				return false
			}
			target, onion = next, rest
		}
		return target == bid && len(onion) == FakeOnionSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: a hop key can open exactly its own layer — any other hop's
// key fails authentication.
func TestPropLayerKeysNonInterchangeable(t *testing.T) {
	f := func(seed uint64) bool {
		stream := rng.New(seed)
		tun := &Tunnel{Hops: makeHops(stream, 3)}
		env, err := BuildForward(tun, nil, id.HashString("d"), []byte("x"), stream)
		if err != nil {
			return false
		}
		if _, err := OpenForwardLayerInPlace(tun.Hops[1].Anchor, bytes.Clone(env.Sealed)); err == nil {
			return false
		}
		if _, err := OpenForwardLayerInPlace(tun.Hops[2].Anchor, bytes.Clone(env.Sealed)); err == nil {
			return false
		}
		_, err = OpenForwardLayerInPlace(tun.Hops[0].Anchor, bytes.Clone(env.Sealed))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: corrupting any single byte of a forward envelope's sealed
// body makes the first hop reject it (AES-GCM integrity).
func TestPropTamperAlwaysDetected(t *testing.T) {
	stream := rng.New(7)
	tun := &Tunnel{Hops: makeHops(stream, 3)}
	env, err := BuildForward(tun, nil, id.HashString("d"), []byte("payload payload"), stream)
	if err != nil {
		t.Fatal(err)
	}
	f := func(posRaw uint16, mask uint8) bool {
		if mask == 0 {
			return true
		}
		pos := int(posRaw) % len(env.Sealed)
		mut := append([]byte(nil), env.Sealed...)
		mut[pos] ^= byte(mask)
		_, err := OpenForwardLayerInPlace(tun.Hops[0].Anchor, mut)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: reply tunnel encoding round-trips for any hint and onion
// contents.
func TestPropReplyTunnelCodec(t *testing.T) {
	f := func(firstRaw [20]byte, hint int64, onion []byte) bool {
		rt := &ReplyTunnel{First: id.ID(firstRaw), FirstHint: simnet.Addr(hint), Onion: onion}
		got, err := DecodeReplyTunnel(rt.Encode())
		if err != nil {
			return false
		}
		return got.First == rt.First && got.FirstHint == rt.FirstHint && bytes.Equal(got.Onion, rt.Onion)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: envelope wire size is exactly framing + ciphertext, and the
// ciphertext grows linearly in layer count (Overhead per layer plus
// framing), so Figure 6's transfer sizes are trustworthy.
func TestPropEnvelopeSizeLinearInLayers(t *testing.T) {
	stream := rng.New(9)
	payload := make([]byte, 1000)
	var prev int
	for l := 1; l <= 6; l++ {
		tun := &Tunnel{Hops: makeHops(stream.SplitN("hops", l), l)}
		env, err := BuildForward(tun, nil, id.HashString("d"), payload, stream)
		if err != nil {
			t.Fatal(err)
		}
		if env.SizeBytes() != id.Size+8+len(env.Sealed) {
			t.Fatalf("SizeBytes inconsistent")
		}
		if l > 1 {
			growth := env.SizeBytes() - prev
			// Each extra layer adds one seal Overhead plus relay framing
			// (marker + id + hint + blob prefix ≈ 32 bytes).
			if growth < crypt.Overhead || growth > crypt.Overhead+64 {
				t.Fatalf("layer %d growth %d bytes implausible", l, growth)
			}
		}
		prev = env.SizeBytes()
	}
}
