// Package procnode is the overlay node for the real-process deployment
// mode: the engine a tapnode process runs on top of tcptransport.
//
// It reuses the simulator's onion cryptography — the tunnel hop anchors
// of internal/tha and the layered envelopes of internal/core — but none
// of its oracles. Where a simulated hop consults the global directory,
// a procnode holds only the anchors initiators deployed to it; where the
// simulated engine routes with the Pastry overlay, a procnode follows
// the §5 address hints baked into each onion layer, falling back to a
// full-membership node-ID index (fed by the bulletin board) only to
// resolve exit destinations and the reply tail. That is the optimized
// mode of the paper with the bootstrap oracle made explicit.
package procnode

import (
	"errors"
	"fmt"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
	"tap/internal/wire"
)

// Frame kinds of the node-to-node protocol.
const (
	kindAnchor    = 1 // install a tunnel hop anchor
	kindAnchorAck = 2 // confirm an installation
	kindForward   = 3 // a forward-tunnel envelope (core.Envelope)
	kindReply     = 4 // a reply-tunnel envelope (core.ReplyEnvelope)
	kindData      = 5 // an exit payload en route to its destination node
)

// AnchorMsg deploys one anchor <hopid, K, H(PW)> onto the receiving
// node. In the simulator this is a PAST replica insert; here the
// initiator addresses the holder directly.
type AnchorMsg struct {
	Anchor tha.Anchor
}

// SizeBytes implements transport.Message.
func (m *AnchorMsg) SizeBytes() int { return tha.WireSize }

// AnchorAck confirms an anchor installation, closing the
// deploy-before-use race: initiators wait for every hop's ack before
// sending traffic through a tunnel.
type AnchorAck struct {
	HopID id.ID
}

// SizeBytes implements transport.Message.
func (m *AnchorAck) SizeBytes() int { return id.Size }

// DataMsg carries an exit payload from the tunnel's exit hop to the
// destination node named inside the innermost layer.
type DataMsg struct {
	Dest    id.ID
	Payload []byte
}

// SizeBytes implements transport.Message.
func (m *DataMsg) SizeBytes() int { return id.Size + len(m.Payload) }

// Codec frames the procnode message set for tcptransport. Its decoders
// lend twice over (tcptransport.Decoder): each keeps one message struct per
// kind and decodes into it, so a message is valid until that decoder's next
// call; and a forward, reply or data message's blobs lie in the window of
// the connection's read buffer Decode was handed. An anchor or an ack is
// fixed-width fields, copied in.
type Codec struct{}

// AppendEncode implements tcptransport.Codec: it appends msg's encoding
// to dst, leaving dst's own bytes untouched.
func (Codec) AppendEncode(dst []byte, msg transport.Message) (byte, []byte, error) {
	w := wire.NewWriterOn(dst)
	switch m := msg.(type) {
	case *AnchorMsg:
		tha.AppendAnchor(w, m.Anchor)
		return kindAnchor, w.Bytes(), nil
	case *AnchorAck:
		w.ID(m.HopID)
		return kindAnchorAck, w.Bytes(), nil
	case *core.Envelope:
		w.ID(m.HopID)
		w.Int64(int64(m.Hint))
		w.Blob(m.Sealed)
		w.Uint32(uint32(m.Pad))
		return kindForward, w.Bytes(), nil
	case *core.ReplyEnvelope:
		w.ID(m.Target)
		w.Int64(int64(m.Hint))
		w.Blob(m.Onion)
		w.Blob(m.Data)
		w.Uint32(uint32(m.Pad))
		return kindReply, w.Bytes(), nil
	case *DataMsg:
		w.ID(m.Dest)
		w.Blob(m.Payload)
		return kindData, w.Bytes(), nil
	default:
		return 0, nil, fmt.Errorf("procnode: cannot encode %T", msg)
	}
}

// Encode is AppendEncode into a fresh buffer. The capacity covers every
// kind's fields beyond SizeBytes (hint, pad, length prefixes), so the
// encoding is one allocation.
func (c Codec) Encode(msg transport.Message) (byte, []byte, error) {
	return c.AppendEncode(make([]byte, 0, msg.SizeBytes()+32), msg)
}

// errPad refuses an envelope whose pad count no frame could account for.
// Pad is modelled padding, four bytes on the wire whatever it claims, but
// it counts toward SizeBytes — which sizes the next hop's envelope and
// the buffer that frames it — so a peer's claim is bounded where it
// enters.
var errPad = errors.New("pad exceeds the frame limit")

// errBlobLen is the refusal of a key or hash blob that is not exactly its
// field.
var errBlobLen = wire.ErrBlobLen

// NewDecoder implements tcptransport.Codec.
func (Codec) NewDecoder() tcptransport.Decoder { return new(decoder) }

// Decode decodes one message with a decoder of its own, so the struct is
// the caller's to keep; its blobs still alias payload.
func (Codec) Decode(kind byte, payload []byte) (transport.Message, error) {
	return new(decoder).Decode(kind, payload)
}

// decoder is the one decode implementation: a struct per kind, each
// decode overwriting every field of the one it returns.
type decoder struct {
	anchor AnchorMsg
	ack    AnchorAck
	fwd    core.Envelope
	reply  core.ReplyEnvelope
	data   DataMsg
}

// Decode implements tcptransport.Decoder.
func (d *decoder) Decode(kind byte, payload []byte) (transport.Message, error) {
	r := wire.NewReader(payload)
	switch kind {
	case kindAnchor:
		d.anchor = AnchorMsg{Anchor: tha.ReadAnchor(r)}
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("procnode: anchor: %w", err)
		}
		return &d.anchor, nil
	case kindAnchorAck:
		d.ack = AnchorAck{HopID: r.ID()}
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("procnode: anchor ack: %w", err)
		}
		return &d.ack, nil
	case kindForward:
		d.fwd = core.Envelope{HopID: r.ID(), Hint: transport.Addr(r.Int64()), Sealed: r.Blob(), Pad: int(r.Uint32())}
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("procnode: forward envelope: %w", err)
		}
		if d.fwd.Pad > wire.MaxFramePayload {
			return nil, fmt.Errorf("procnode: forward envelope: %w", errPad)
		}
		return &d.fwd, nil
	case kindReply:
		d.reply = core.ReplyEnvelope{Target: r.ID(), Hint: transport.Addr(r.Int64()), Onion: r.Blob(), Data: r.Blob(), Pad: int(r.Uint32())}
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("procnode: reply envelope: %w", err)
		}
		if d.reply.Pad > wire.MaxFramePayload {
			return nil, fmt.Errorf("procnode: reply envelope: %w", errPad)
		}
		return &d.reply, nil
	case kindData:
		d.data = DataMsg{Dest: r.ID(), Payload: r.Blob()}
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("procnode: data: %w", err)
		}
		return &d.data, nil
	default:
		return nil, fmt.Errorf("procnode: unknown frame kind %d", kind)
	}
}

// compile-time interface checks for the message set
var (
	_ transport.Message = (*AnchorMsg)(nil)
	_ transport.Message = (*AnchorAck)(nil)
	_ transport.Message = (*DataMsg)(nil)
)
