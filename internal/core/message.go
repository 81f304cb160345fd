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

// stackHops is the tunnel length up to which BuildForward keeps its layout
// tables off the heap.
const stackHops = 8

// hintAt reads the i-th hint from a possibly-nil hint slice (nil is the
// basic, unoptimized mode: no hints anywhere).
func hintAt(hints []simnet.Addr, i int) simnet.Addr {
	if hints == nil {
		return simnet.NoAddr
	}
	return hints[i]
}

// BuildForward produces the Figure 1 message
// {h_2,[ip_2],{h_3,[ip_3],{D,m}_K3}_K2}_K1 for the given tunnel. hints may
// be nil (basic mode); with hints it is the §5 optimized form. The
// returned envelope is addressed to the first hop and owns its Sealed
// buffer.
//
// The whole onion is assembled in one exactly-sized buffer: every layer's
// sealed blob is the tail of the enclosing layer's plaintext, so each
// layer is sealed where it already lies and the payload is encrypted
// straight out of the caller's slice — no per-layer copies, no per-layer
// allocations. Nonces are drawn innermost-first, the same stream order as
// the original nested builder, which keeps output bit-identical for a
// given stream (the experiment tables depend on that).
func BuildForward(t *Tunnel, hints []simnet.Addr, dest id.ID, payload []byte, stream *rng.Stream) (*Envelope, error) {
	l := t.Length()
	if l == 0 {
		return nil, fmt.Errorf("core: cannot build a message for an empty tunnel")
	}
	if hints != nil && len(hints) != l {
		return nil, fmt.Errorf("core: %d hints for %d hops", len(hints), l)
	}

	// Layer sizes compose inside-out (the uvarint length prefix of each
	// inner blob depends on its size). Both tables live on the stack for
	// any tunnel the paper or the experiments build.
	var fixed [2 * stackHops]int
	layout := fixed[:]
	if 2*l > len(layout) {
		layout = make([]int, 2*l)
	}
	sizes, offs := layout[:l], layout[l:2*l]
	exitHdr := 1 + id.Size + uvarintLen(uint64(len(payload)))
	sizes[l-1] = exitHdr + len(payload) + crypt.Overhead
	for i := l - 2; i >= 0; i-- {
		sizes[i] = 1 + id.Size + 8 + uvarintLen(uint64(sizes[i+1])) + sizes[i+1] + crypt.Overhead
	}
	buf := make([]byte, sizes[0])

	// Offsets compose outside-in: layer i+1 sits after layer i's nonce
	// margin and relay header.
	for i := 1; i < l; i++ {
		offs[i] = offs[i-1] + crypt.NonceSize + 1 + id.Size + 8 + uvarintLen(uint64(sizes[i]))
	}

	// Innermost: the exit layer, sealed with the tail hop's key; the
	// payload is encrypted directly from the caller's slice.
	p := buf[offs[l-1]+crypt.NonceSize:]
	p[0] = layerExit
	copy(p[1:], dest[:])
	binary.PutUvarint(p[1+id.Size:], uint64(len(payload)))
	region := buf[offs[l-1] : offs[l-1]+sizes[l-1]]
	if err := t.hopSealer(l-1).SealInPlaceFrom(region, stream, exitHdr, payload); err != nil {
		return nil, fmt.Errorf("core: sealing exit layer: %w", err)
	}
	// Relay layers outward: layer i names hop i+1.
	for i := l - 2; i >= 0; i-- {
		p := buf[offs[i]+crypt.NonceSize:]
		p[0] = layerRelay
		copy(p[1:], t.Hops[i+1].HopID[:])
		binary.BigEndian.PutUint64(p[1+id.Size:], uint64(int64(hintAt(hints, i+1))))
		binary.PutUvarint(p[1+id.Size+8:], uint64(sizes[i+1]))
		if err := t.hopSealer(i).SealInPlace(buf[offs[i]:offs[i]+sizes[i]], stream); err != nil {
			return nil, fmt.Errorf("core: sealing relay layer %d: %w", i, err)
		}
	}
	return &Envelope{HopID: t.Hops[0].HopID, Hint: hintAt(hints, 0), Sealed: buf}, nil
}

// OpenForwardLayerInPlace is the single symmetric operation a hop
// performs: strip one layer with the anchor key and reveal either the next
// hop or the exit. It decrypts sealed where it lies, using the anchor's
// cached key schedule: one MAC pass, one cipher pass, zero copies. The
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
		l.Next = r.ID()
		l.NextHint = simnet.Addr(r.Int64())
		l.Inner = r.Blob()
		if err := r.Done(); err != nil {
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
	w := wire.NewWriter(id.Size + 8 + len(rt.Onion) + 8)
	w.ID(rt.First)
	w.Int64(int64(rt.FirstHint))
	w.Blob(rt.Onion)
	return w.Bytes()
}

// DecodeReplyTunnel parses an encoded reply tunnel.
func DecodeReplyTunnel(b []byte) (*ReplyTunnel, error) {
	r := wire.NewReader(b)
	rt := &ReplyTunnel{}
	rt.First = r.ID()
	rt.FirstHint = simnet.Addr(r.Int64())
	rt.Onion = append([]byte(nil), r.Blob()...)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: decoding reply tunnel: %w", err)
	}
	return rt, nil
}

// FakeOnionSize is the default fake-onion length: sized like one more
// sealed reply layer so the tail hop sees a plausible remainder.
const FakeOnionSize = id.Size + 8 + 2 + crypt.Overhead

// BuildReply constructs the §4 reply tunnel
// T_r = {hid_1', {hid_2', {hid_3', {bid, fakeonion}_K3'}_K2'}_K1'}:
// a pre-peeled onion ending at bid, capped with fake padding. hints may be
// nil for basic mode.
//
// Like BuildForward, the onion is assembled in one exactly-sized buffer
// and sealed layer by layer where it lies. The stream draw order of the
// nested builder is preserved — fake onion bytes first, then the tail
// nonce, then each outward layer's nonce — so output stays bit-identical.
func BuildReply(t *Tunnel, hints []simnet.Addr, bid id.ID, stream *rng.Stream) (*ReplyTunnel, error) {
	l := t.Length()
	if l == 0 {
		return nil, fmt.Errorf("core: cannot build a reply tunnel with no hops")
	}
	if hints != nil && len(hints) != l {
		return nil, fmt.Errorf("core: %d hints for %d hops", len(hints), l)
	}

	// Every reply layer has the same header; only the inner blob widths
	// differ. Sizes inside-out, offsets outside-in.
	hdr := func(inner int) int { return id.Size + 8 + uvarintLen(uint64(inner)) }
	sizes := make([]int, l)
	sizes[l-1] = hdr(FakeOnionSize) + FakeOnionSize + crypt.Overhead
	for i := l - 2; i >= 0; i-- {
		sizes[i] = hdr(sizes[i+1]) + sizes[i+1] + crypt.Overhead
	}
	buf := make([]byte, sizes[0])
	offs := make([]int, l)
	for i := 1; i < l; i++ {
		offs[i] = offs[i-1] + crypt.NonceSize + hdr(sizes[i])
	}

	// Tail layer: bid, no hint, fake onion. The fake bytes are drawn
	// before the tail nonce, matching the historical stream order.
	p := buf[offs[l-1]+crypt.NonceSize:]
	copy(p, bid[:])
	noHint := int64(simnet.NoAddr)
	binary.BigEndian.PutUint64(p[id.Size:], uint64(noHint))
	n := id.Size + 8 + binary.PutUvarint(p[id.Size+8:], uint64(FakeOnionSize))
	stream.Bytes(p[n : n+FakeOnionSize])
	if err := t.hopSealer(l-1).SealInPlace(buf[offs[l-1]:offs[l-1]+sizes[l-1]], stream); err != nil {
		return nil, fmt.Errorf("core: sealing reply tail: %w", err)
	}
	for i := l - 2; i >= 0; i-- {
		p := buf[offs[i]+crypt.NonceSize:]
		copy(p, t.Hops[i+1].HopID[:])
		binary.BigEndian.PutUint64(p[id.Size:], uint64(int64(hintAt(hints, i+1))))
		binary.PutUvarint(p[id.Size+8:], uint64(sizes[i+1]))
		if err := t.hopSealer(i).SealInPlace(buf[offs[i]:offs[i]+sizes[i]], stream); err != nil {
			return nil, fmt.Errorf("core: sealing reply layer %d: %w", i, err)
		}
	}
	return &ReplyTunnel{First: t.Hops[0].HopID, FirstHint: hintAt(hints, 0), Onion: buf}, nil
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
	r := wire.NewReader(plain)
	next = r.ID()
	hint = simnet.Addr(r.Int64())
	rest = r.Blob()
	if err := r.Done(); err != nil {
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
