package core

import (
	"bytes"
	"testing"

	"tap/internal/id"
	"tap/internal/rng"
)

// FuzzOpenForwardLayer feeds arbitrary ciphertext to a hop's layer opener:
// it must never panic and must reject everything that was not produced by
// BuildForward under the right key.
func FuzzOpenForwardLayer(f *testing.F) {
	stream := rng.New(1)
	tun := &Tunnel{Hops: makeHops(stream, 2)}
	env, err := BuildForward(tun, nil, id.ID{}, []byte("seed"), stream)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env.Sealed)
	f.Add([]byte{})
	f.Add(make([]byte, 64))

	anchor := tun.Hops[0].Anchor
	valid := string(env.Sealed)
	f.Fuzz(func(t *testing.T, data []byte) {
		layer, err := OpenForwardLayerInPlace(anchor, bytes.Clone(data))
		if err != nil {
			return
		}
		// Only the genuine ciphertext may decode successfully.
		if string(data) != valid {
			t.Fatalf("forged ciphertext accepted: %+v", layer)
		}
	})
}

// FuzzOpenReplyLayer is the reply-side twin.
func FuzzOpenReplyLayer(f *testing.F) {
	stream := rng.New(2)
	tun := &Tunnel{Hops: makeHops(stream, 2)}
	rt, err := BuildReply(tun, nil, id.ID{}, stream)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rt.Onion)
	f.Add([]byte{})
	anchor := tun.Hops[0].Anchor
	valid := string(rt.Onion)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, err := OpenReplyLayerInPlace(anchor, bytes.Clone(data))
		if err == nil && string(data) != valid {
			t.Fatalf("forged reply onion accepted")
		}
	})
}

// FuzzDecodeReplyTunnel: arbitrary bytes must either parse consistently
// or fail cleanly.
func FuzzDecodeReplyTunnel(f *testing.F) {
	stream := rng.New(3)
	tun := &Tunnel{Hops: makeHops(stream, 3)}
	rt, err := BuildReply(tun, nil, id.ID{}, stream)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rt.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeReplyTunnel(data)
		if err != nil {
			return
		}
		// Whatever parsed must re-encode to an equivalent structure.
		again, err := DecodeReplyTunnel(got.Encode())
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if again.First != got.First || again.FirstHint != got.FirstHint || len(again.Onion) != len(got.Onion) {
			t.Fatalf("decode/encode not idempotent")
		}
	})
}
