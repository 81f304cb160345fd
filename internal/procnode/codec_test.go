package procnode

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"tap/internal/core"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/wire"
)

// codecMessages is one message of each of the five kinds.
func codecMessages() []transport.Message {
	var a tha.Anchor
	a.HopID = NodeID(8)
	copy(a.Key[:], "a layer key, thirty-two bytes...")
	copy(a.PWHash[:], "and the hash of its password....")
	return []transport.Message{
		&AnchorMsg{Anchor: a},
		&AnchorAck{HopID: NodeID(9)},
		&core.Envelope{HopID: NodeID(1), Hint: 4, Sealed: []byte("sealed"), Pad: 3},
		&core.ReplyEnvelope{Target: NodeID(2), Hint: transport.NoAddr, Onion: []byte("onion"), Data: []byte("data"), Pad: 1},
		&DataMsg{Dest: NodeID(3), Payload: []byte("payload")},
	}
}

// checkCodecContracts holds one decoded message to the codec's
// contracts: it re-encodes — an anchor or an ack to the very bytes it came
// from —, AppendEncode leaves the bytes ahead of it alone and appends
// exactly what Encode returns, and the encoding decodes back to an equal
// message. A connection's decoder lends its structs: decoding input
// allocates nothing, and decoded after a message of any kind it is what a
// fresh decoder makes of input, no field of the earlier message left. And
// the decode lends bytes, both ways: a forward, reply or data message's
// blobs lie inside the decoder's input — the transport hands Decode a
// window of its read buffer, and the handler borrows it; an anchor or an
// ack is fixed-width fields, copied, and survives a scribble over the
// input. input is scribbled over.
func checkCodecContracts(t *testing.T, kind byte, msg transport.Message, input []byte) {
	t.Helper()
	var c Codec
	k, enc, err := c.Encode(msg)
	if err != nil || k != kind {
		t.Fatalf("%T: re-encode: kind %d (want %d), err %v", msg, k, kind, err)
	}

	const prefix = "frame header and addresses"
	dst := append(make([]byte, 0, len(prefix)+len(enc)+64), prefix...)
	k, out, err := c.AppendEncode(dst, msg)
	if err != nil || k != kind {
		t.Fatalf("%T: AppendEncode: kind %d (want %d), err %v", msg, k, kind, err)
	}
	if string(out[:len(prefix)]) != prefix || !bytes.Equal(out[len(prefix):], enc) {
		t.Fatalf("%T: AppendEncode(prefix, m) != prefix + Encode(m)", msg)
	}

	// An anchor or an ack is fixed-width fields only: what decodes has one
	// encoding, the one it arrived in.
	if (kind == kindAnchor || kind == kindAnchorAck) && !bytes.Equal(enc, input) {
		t.Fatalf("%T: decoded from %x, re-encodes as %x", msg, input, enc)
	}

	again, err := c.Decode(kind, enc)
	if err != nil {
		t.Fatalf("%T: decoding its own encoding: %v", msg, err)
	}
	if !reflect.DeepEqual(again, msg) {
		t.Fatalf("%T: round trip changed the message:\n got %+v\nwant %+v", msg, again, msg)
	}

	dec := c.NewDecoder()
	if got := testing.AllocsPerRun(10, func() { dec.Decode(kind, input) }); got != 0 {
		t.Fatalf("%T: %.1f allocations per decode by a connection's decoder, want 0", msg, got)
	}
	fresh, err := c.NewDecoder().Decode(kind, input)
	if err != nil {
		t.Fatalf("%T: a fresh decoder refuses what decoded: %v", msg, err)
	}
	for _, earlier := range codecMessages() {
		ek, enc, err := c.Encode(earlier)
		if err != nil {
			t.Fatal(err)
		}
		dec := c.NewDecoder()
		if _, err := dec.Decode(ek, enc); err != nil {
			t.Fatal(err)
		}
		if got, err := dec.Decode(kind, input); err != nil || !reflect.DeepEqual(got, fresh) {
			t.Fatalf("%T decoded after a %T: %+v (err %v), a fresh decoder makes %+v", msg, earlier, got, err, fresh)
		}
	}

	var blobs [][]byte
	switch m := msg.(type) {
	case *core.Envelope:
		blobs = [][]byte{m.Sealed}
	case *core.ReplyEnvelope:
		blobs = [][]byte{m.Onion, m.Data}
	case *DataMsg:
		blobs = [][]byte{m.Payload}
	}
	scribble := func() {
		for i := range input {
			input[i] ^= 0xff
		}
	}
	if blobs == nil {
		scribble()
		if _, after, _ := c.Encode(msg); !bytes.Equal(after, enc) {
			t.Fatalf("%T: the decoded message aliases the decoder's input", msg)
		}
		return
	}
	var before [][]byte
	for _, b := range blobs {
		before = append(before, bytes.Clone(b))
	}
	scribble()
	for i, b := range blobs {
		for j := range b {
			if b[j] != before[i][j]^0xff {
				t.Fatalf("%T: blob %d was copied out of the decoder's input, not lent", msg, i)
			}
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var c Codec
	kinds := make(map[byte]bool)
	for _, m := range codecMessages() {
		kind, payload, err := c.Encode(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		kinds[kind] = true
		got, err := c.Decode(kind, payload)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T: decoded %+v, want %+v", m, got, m)
		}
		checkCodecContracts(t, kind, got, payload)
	}
	if len(kinds) != 5 {
		t.Fatalf("%d distinct frame kinds, want 5", len(kinds))
	}
	if _, err := c.Decode(99, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// A pad no frame could carry is refused where it enters: it would
	// size the next hop's envelope, and the buffer that frames it.
	_, hostile, _ := c.AppendEncode(nil, &core.Envelope{HopID: NodeID(1), Sealed: []byte("sealed"), Pad: wire.MaxFramePayload + 1})
	if _, err := c.Decode(kindForward, hostile); !errors.Is(err, errPad) {
		t.Fatalf("an envelope claiming %d bytes of padding decoded: %v", wire.MaxFramePayload+1, err)
	}
	// A key or hash blob that is not its field's length is refused: copied
	// as it came, the 22-byte frame below would install an all-zero key.
	hop := NodeID(8)
	key, hash := make([]byte, len(tha.Anchor{}.Key)), make([]byte, len(tha.Anchor{}.PWHash))
	for name, blobs := range map[string][2][]byte{
		"both empty": {nil, nil},
		"short key":  {key[1:], hash},
		"long key":   {append(key, 0), hash},
		"short hash": {key, hash[1:]},
		"long hash":  {key, append(hash, 0)},
		"swapped":    {hash, key},
	} {
		w := wire.NewWriter(128)
		w.ID(hop)
		w.Blob(blobs[0])
		w.Blob(blobs[1])
		if _, err := c.Decode(kindAnchor, w.Bytes()); !errors.Is(err, errBlobLen) {
			t.Errorf("anchor frame, %s (%d bytes): err = %v", name, w.Len(), err)
		}
	}
	// The same lengths under a two-byte length prefix: a second encoding of
	// one anchor, refused.
	overlong := append(hop[:], byte(len(key))|0x80, 0)
	overlong = append(append(overlong, key...), byte(len(hash)))
	if _, err := c.Decode(kindAnchor, append(overlong, hash...)); !errors.Is(err, errBlobLen) {
		t.Errorf("anchor frame with an overlong length prefix: err = %v", err)
	}
	if _, _, err := c.AppendEncode(nil, transport.Message(nil)); err == nil {
		t.Fatal("a message outside the set was encoded")
	}
}

// FuzzCodecDecode feeds the socket-facing decoder arbitrary (kind, bytes):
// it must never panic, and whatever it accepts must satisfy every codec
// contract. The committed corpus holds a genuine payload of each kind and
// the hostile shapes: truncation, a blob length past the buffer, trailing
// bytes, an unknown kind, a four-gigabyte pad claim, anchors whose key
// blobs are empty or a byte too long.
func FuzzCodecDecode(f *testing.F) {
	var c Codec
	for _, m := range codecMessages() {
		kind, payload, err := c.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, payload)
	}
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		msg, err := c.Decode(kind, data)
		if err != nil {
			return
		}
		checkCodecContracts(t, kind, msg, data)
	})
}
