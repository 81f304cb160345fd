package core

import (
	"encoding/binary"
	"fmt"

	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
	"tap/internal/wire"
)

// Layer markers inside forward-tunnel ciphertext.
const (
	layerRelay byte = 1
	layerExit  byte = 2
)

// Envelope is the wire unit of a forward tunnel: addressed to a hopid,
// optionally carrying the §5 address hint for that hop, and a sealed body
// only the hop's anchor key opens.
//
// Pad is link padding appended by relaying hops: each peeled layer
// shrinks the sealed body by the layer overhead, so without padding an
// observer could read a message's position in its tunnel off its length.
// Hops that strip a layer pad the envelope back to the size they
// received, keeping the wire size constant end to end. Pad bytes carry
// no information and are not authenticated — tampering with them has no
// effect.
type Envelope struct {
	HopID  id.ID
	Hint   simnet.Addr
	Sealed []byte
	Pad    int
}

// SizeBytes implements simnet.Message: hopid + hint + body + padding.
func (e *Envelope) SizeBytes() int { return id.Size + 8 + len(e.Sealed) + e.Pad }

// PadToMatch sets Pad so the envelope's wire size equals prior's. A
// smaller prior leaves the envelope unpadded.
func (e *Envelope) PadToMatch(priorSize int) {
	e.Pad = 0
	if d := priorSize - e.SizeBytes(); d > 0 {
		e.Pad = d
	}
}

// ForwardLayer is one decrypted layer of a forward message.
type ForwardLayer struct {
	IsExit bool

	// Relay fields: where the message goes next.
	Next     id.ID
	NextHint simnet.Addr
	Inner    []byte

	// Exit fields: the destination key and the plaintext payload
	// (which, in §4, is {fid, K_I, T_r}).
	Dest    id.ID
	Payload []byte
}

// uvarintLen returns the encoded size of a Blob length prefix for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// hintAt reads the i-th hint from a possibly-nil hint slice (nil is the
// basic, unoptimized mode: no hints anywhere).
func hintAt(hints []simnet.Addr, i int) simnet.Addr {
	if hints == nil {
		return simnet.NoAddr
	}
	return hints[i]
}

// seal is the one build step: it lays out t's onion in one exactly-sized
// buffer — dst's storage when its capacity suffices, else a new one — and
// seals every layer where it lies, writing every byte. Layer i < l-1 is
// [marker] ‖ hop i+1's hopid ‖ its hint ‖ layer i+1, with no marker byte
// when marker is 0 (a reply layer); the innermost layer is head ‖ body,
// body encrypted straight out of the caller's slice. Every layer's sealed
// blob is the tail of the enclosing layer's plaintext, so there are no
// per-layer copies and no per-layer allocations. Nonces are drawn
// innermost-first, the stream order of the original nested builders, which
// keeps output bit-identical for a given stream (the experiment tables
// depend on that).
func seal(dst []byte, t *Tunnel, hints []simnet.Addr, marker byte, head, body []byte, stream *rng.Stream) ([]byte, error) {
	l := t.Length()
	if l == 0 {
		return nil, fmt.Errorf("core: cannot build an onion for an empty tunnel")
	}
	if hints != nil && len(hints) != l {
		return nil, fmt.Errorf("core: %d hints for %d hops", len(hints), l)
	}
	// Sizes compose inside-out (an inner blob's length prefix depends on its
	// size), and so does the layout, with no tables: as each plaintext ends
	// with the next layer, layer i's sealed region ends i tags short of the
	// buffer's end.
	size := len(head) + len(body) + crypt.Overhead
	total := onionSize(l, marker, len(head), len(body))
	if cap(dst) < total {
		dst = make([]byte, total)
	}
	buf := dst[:total]
	tag := crypt.Overhead - crypt.NonceSize
	end := total - (l-1)*tag

	region := buf[end-size : end]
	copy(region[crypt.NonceSize:], head)
	if err := t.hopSealer(l-1).SealInPlaceFrom(region, stream, len(head), body); err != nil {
		return nil, fmt.Errorf("core: sealing layer %d: %w", l-1, err)
	}
	for i := l - 2; i >= 0; i-- {
		inner := size
		size, end = wrapSize(marker, inner), end+tag
		region := buf[end-size : end]
		p := region[crypt.NonceSize:]
		if marker != 0 {
			p[0], p = marker, p[1:]
		}
		copy(p, t.Hops[i+1].HopID[:])
		binary.BigEndian.PutUint64(p[id.Size:], uint64(int64(hintAt(hints, i+1))))
		binary.PutUvarint(p[id.Size+8:], uint64(inner))
		if err := t.hopSealer(i).SealInPlace(region, stream); err != nil {
			return nil, fmt.Errorf("core: sealing layer %d: %w", i, err)
		}
	}
	return buf, nil
}

// wrapSize is the sealed size of a layer around an inner blob of inner
// bytes: [marker] ‖ next hopid ‖ hint ‖ the blob, with no marker byte when
// marker is 0 (a reply layer).
func wrapSize(marker byte, inner int) int {
	n := id.Size + 8 + uvarintLen(uint64(inner)) + inner + crypt.Overhead
	if marker != 0 {
		n++
	}
	return n
}

// onionSize is the length of the onion seal lays out over l hops for a
// head and body of the given sizes.
func onionSize(l int, marker byte, head, body int) int {
	n := head + body + crypt.Overhead
	for i := l - 2; i >= 0; i-- {
		n = wrapSize(marker, n)
	}
	return n
}

// forwardSize is the length of the onion BuildForwardInto lays out for a
// payload of the given size over l hops.
func forwardSize(l, payload int) int {
	return onionSize(l, layerRelay, 1+id.Size+uvarintLen(uint64(payload)), payload)
}

// BuildForward produces the Figure 1 message
// {h_2,[ip_2],{h_3,[ip_3],{D,m}_K3}_K2}_K1 for the given tunnel. hints may
// be nil (basic mode); with hints it is the §5 optimized form. The
// returned envelope is addressed to the first hop and owns its Sealed
// buffer, the one allocation besides the envelope.
func BuildForward(t *Tunnel, hints []simnet.Addr, dest id.ID, payload []byte, stream *rng.Stream) (*Envelope, error) {
	e := new(Envelope)
	if err := BuildForwardInto(e, t, hints, dest, payload, stream); err != nil {
		return nil, err
	}
	return e, nil
}

// BuildForwardInto is BuildForward into an envelope the caller keeps: the
// onion is laid out in e.Sealed's storage when its capacity suffices, so a
// sender that rebuilds one envelope allocates nothing. payload must not
// overlap e.Sealed.
func BuildForwardInto(e *Envelope, t *Tunnel, hints []simnet.Addr, dest id.ID, payload []byte, stream *rng.Stream) error {
	var exit [1 + id.Size + binary.MaxVarintLen64]byte
	exit[0] = layerExit
	copy(exit[1:], dest[:])
	n := 1 + id.Size + binary.PutUvarint(exit[1+id.Size:], uint64(len(payload)))
	buf, err := seal(e.Sealed, t, hints, layerRelay, exit[:n], payload, stream)
	if err != nil {
		return err
	}
	*e = Envelope{HopID: t.Hops[0].HopID, Hint: hintAt(hints, 0), Sealed: buf}
	return nil
}

// readHop reads what every relay layer and every reply layer ends with:
// next hopid ‖ hint ‖ inner, and nothing after.
func readHop(r *wire.Reader) (next id.ID, hint simnet.Addr, inner []byte, err error) {
	next, hint, inner = r.ID(), simnet.Addr(r.Int64()), r.Blob()
	return next, hint, inner, r.Done()
}

// OpenForwardLayerInPlace is the single symmetric operation a hop
// performs: strip one layer with the anchor key and reveal either the next
// hop or the exit. It decrypts sealed where it lies, using the anchor's
// cached key schedule: one AEAD pass, zero copies. The
// returned layer aliases sealed — the caller must own the buffer (every
// relay does, DESIGN §9) and must not treat it as ciphertext afterwards.
func OpenForwardLayerInPlace(a tha.Anchor, sealed []byte) (ForwardLayer, error) {
	plain, err := a.Sealer().OpenInPlace(sealed)
	if err != nil {
		return ForwardLayer{}, fmt.Errorf("core: hop %s: %w", a.HopID.Short(), err)
	}
	r := wire.NewReader(plain)
	switch marker := r.Byte(); marker {
	case layerRelay:
		var l ForwardLayer
		if l.Next, l.NextHint, l.Inner, err = readHop(r); err != nil {
			return ForwardLayer{}, fmt.Errorf("core: relay layer: %w", err)
		}
		return l, nil
	case layerExit:
		l := ForwardLayer{IsExit: true}
		l.Dest = r.ID()
		l.Payload = r.Blob()
		if err := r.Done(); err != nil {
			return ForwardLayer{}, fmt.Errorf("core: exit layer: %w", err)
		}
		return l, nil
	default:
		return ForwardLayer{}, fmt.Errorf("core: unknown layer marker %d", marker)
	}
}

// Peel is the whole hop step, for the node holding a: note the wire size,
// open one layer where it lies, re-address the envelope to the hop the layer
// names, pad it back to the size it arrived with. An exit layer names no hop
// and leaves the envelope as it is; its payload aliases Sealed. Every relay
// — the walker, NetEngine, procnode — takes the step here, the only writer
// of a message in flight (DESIGN §9): the caller must own the envelope.
func (e *Envelope) Peel(a tha.Anchor) (ForwardLayer, error) {
	size := e.SizeBytes()
	layer, err := OpenForwardLayerInPlace(a, e.Sealed)
	if err != nil || layer.IsExit {
		return layer, err
	}
	e.HopID, e.Hint, e.Sealed = layer.Next, layer.NextHint, layer.Inner
	e.PadToMatch(size)
	return layer, nil
}

// --- reply tunnels -----------------------------------------------------------

// ReplyEnvelope is the wire unit of a reply tunnel. Unlike forward
// messages, the data rides alongside the onion: reply hops peel the
// routing onion only, and payload confidentiality comes from the
// responder's encryption under K_f (§4). Every reply layer has the same
// shape — next id, hint, remainder — so the final layer, which names the
// initiator's bid and carries the fake onion, is indistinguishable from an
// interior one.
type ReplyEnvelope struct {
	Target id.ID
	Hint   simnet.Addr
	Onion  []byte
	Data   []byte
	// Pad is link padding, maintained by relaying hops like the forward
	// Envelope's: the onion shrinks by one layer per hop, which would
	// otherwise mark position.
	Pad int
}

// SizeBytes implements simnet.Message.
func (e *ReplyEnvelope) SizeBytes() int {
	return id.Size + 8 + len(e.Onion) + len(e.Data) + e.Pad
}

// PadToMatch sets Pad so the envelope's wire size equals prior's.
func (e *ReplyEnvelope) PadToMatch(priorSize int) {
	e.Pad = 0
	if d := priorSize - e.SizeBytes(); d > 0 {
		e.Pad = d
	}
}

// ReplyTunnel is what the initiator embeds in a forward payload: the
// first reply hopid plus the pre-built onion the responder cannot read.
type ReplyTunnel struct {
	First     id.ID
	FirstHint simnet.Addr
	Onion     []byte
}

// Encode serializes the reply tunnel for embedding in a forward payload.
func (rt *ReplyTunnel) Encode() []byte {
	return rt.AppendEncode(make([]byte, 0, id.Size+8+len(rt.Onion)+8))
}

// AppendEncode appends Encode's bytes to dst and returns the extended
// slice, so a sender that re-encodes one reply tunnel keeps its storage.
func (rt *ReplyTunnel) AppendEncode(dst []byte) []byte {
	w := wire.NewWriterOn(dst)
	w.ID(rt.First)
	w.Int64(int64(rt.FirstHint))
	w.Blob(rt.Onion)
	return w.Bytes()
}

// DecodeReplyTunnel parses an encoded reply tunnel into one that owns its
// onion.
func DecodeReplyTunnel(b []byte) (*ReplyTunnel, error) {
	rt, err := ParseReplyTunnel(b)
	if err != nil {
		return nil, err
	}
	rt.Onion = append([]byte(nil), rt.Onion...)
	return &rt, nil
}

// ParseReplyTunnel is the one reply-tunnel parser. It copies nothing: the
// onion it returns aliases b.
func ParseReplyTunnel(b []byte) (ReplyTunnel, error) {
	r := wire.NewReader(b)
	rt := ReplyTunnel{First: r.ID(), FirstHint: simnet.Addr(r.Int64()), Onion: r.Blob()}
	if err := r.Done(); err != nil {
		return ReplyTunnel{}, fmt.Errorf("core: decoding reply tunnel: %w", err)
	}
	return rt, nil
}

// FakeOnionSize is the default fake-onion length: sized like one more
// sealed reply layer so the tail hop sees a plausible remainder.
const FakeOnionSize = id.Size + 8 + 2 + crypt.Overhead

// BuildReply constructs the §4 reply tunnel
// T_r = {hid_1', {hid_2', {hid_3', {bid, fakeonion}_K3'}_K2'}_K1'}:
// a pre-peeled onion ending at bid, capped with fake padding. hints may be
// nil for basic mode. Its layers are relay layers without the marker byte,
// the tail one naming bid, with no hint, ahead of the fake onion — whose
// bytes are drawn before the tail nonce, the nested builder's stream order.
func BuildReply(t *Tunnel, hints []simnet.Addr, bid id.ID, stream *rng.Stream) (*ReplyTunnel, error) {
	rt := new(ReplyTunnel)
	if err := BuildReplyInto(rt, nil, t, hints, bid, stream); err != nil {
		return nil, err
	}
	return rt, nil
}

// BuildReplyInto is BuildReply into a reply tunnel the caller keeps: the
// onion is laid out in dst's storage when its capacity suffices, so a
// sender that rebuilds its reply tunnel over the last one's onion
// allocates nothing. rt is written only on success.
func BuildReplyInto(rt *ReplyTunnel, dst []byte, t *Tunnel, hints []simnet.Addr, bid id.ID, stream *rng.Stream) error {
	var tail [id.Size + 8 + binary.MaxVarintLen64 + FakeOnionSize]byte
	copy(tail[:], bid[:])
	noHint := simnet.NoAddr
	binary.BigEndian.PutUint64(tail[id.Size:], uint64(noHint))
	n := id.Size + 8 + binary.PutUvarint(tail[id.Size+8:], FakeOnionSize)
	stream.Bytes(tail[n : n+FakeOnionSize])
	onion, err := seal(dst, t, hints, 0, tail[:n+FakeOnionSize], nil, stream)
	if err != nil {
		return err
	}
	*rt = ReplyTunnel{First: t.Hops[0].HopID, FirstHint: hintAt(hints, 0), Onion: onion}
	return nil
}

// OpenReplyLayerInPlace strips one reply-onion layer, yielding the next
// target (a hopid — or, at the end, the bid, though the hop cannot tell
// which) and the remaining onion. It decrypts onion where it lies with the
// anchor's cached key schedule; the returned rest aliases onion — the
// caller must own the buffer.
func OpenReplyLayerInPlace(a tha.Anchor, onion []byte) (next id.ID, hint simnet.Addr, rest []byte, err error) {
	plain, err := a.Sealer().OpenInPlace(onion)
	if err != nil {
		return id.ID{}, simnet.NoAddr, nil, fmt.Errorf("core: reply hop %s: %w", a.HopID.Short(), err)
	}
	if next, hint, rest, err = readHop(wire.NewReader(plain)); err != nil {
		return id.ID{}, simnet.NoAddr, nil, fmt.Errorf("core: reply layer: %w", err)
	}
	return next, hint, rest, nil
}

// Peel is the reply-side hop step (see Envelope.Peel): open one onion layer
// in place, re-address to the target it names, pad back to the arriving
// size. Data is never touched.
func (e *ReplyEnvelope) Peel(a tha.Anchor) error {
	size := e.SizeBytes()
	next, hint, rest, err := OpenReplyLayerInPlace(a, e.Onion)
	if err != nil {
		return err
	}
	e.Target, e.Hint, e.Onion = next, hint, rest
	e.PadToMatch(size)
	return nil
}
