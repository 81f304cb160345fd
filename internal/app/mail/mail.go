// Package mail implements anonymous email over TAP, the second
// application the paper's introduction motivates: "Current tunneling
// techniques may fail to route the reply back to the sender due to node
// failures along the tunnel, while TAP can route the reply back to the
// sender thanks to its robustness."
//
// A recipient owns a *pseudonym*: a DHT key unlinkable to its node. The
// node owning the pseudonym id hosts the mailbox. Senders deposit mail
// through a forward tunnel (the mailbox never sees the sender); each
// deposited message carries a single-use reply tunnel, so the recipient
// can answer without either party learning the other's identity — mutual
// anonymity built from TAP primitives. The recipient drains its mailbox
// through its own forward/reply tunnel pair, exactly like a §4 file
// retrieval where the "file" is the pending mail.
package mail

import (
	"errors"
	"fmt"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/wire"
)

// Message is one piece of anonymous mail.
type Message struct {
	// Body is the payload. Confidentiality beyond the tunnels (e.g.
	// encrypting to the pseudonym's public key) composes on top and is
	// out of scope here.
	Body []byte
	// ReplyTunnel, when non-empty, is an encoded single-use reply tunnel
	// the recipient can answer through.
	ReplyTunnel []byte
}

func encodeMessage(m Message) []byte {
	w := wire.NewWriter(len(m.Body) + len(m.ReplyTunnel) + 16)
	w.Blob(m.Body)
	w.Blob(m.ReplyTunnel)
	return w.Bytes()
}

func decodeMessage(b []byte) (Message, error) {
	r := wire.NewReader(b)
	var m Message
	m.Body = append([]byte(nil), r.Blob()...)
	m.ReplyTunnel = append([]byte(nil), r.Blob()...)
	if err := r.Done(); err != nil {
		return Message{}, fmt.Errorf("mail: malformed message: %w", err)
	}
	return m, nil
}

// Service hosts every mailbox in the network, keyed by pseudonym. In a
// deployment each mailbox would live in the local storage of the
// pseudonym's owner node; the registry here is that storage, with the
// owner check applied on access.
type Service struct {
	svc   *core.Service
	boxes map[id.ID][]Message
}

// NewService creates an empty mail service.
func NewService(svc *core.Service) *Service {
	return &Service{svc: svc, boxes: make(map[id.ID][]Message)}
}

// ErrFetchLost reports a fetch whose answer never came back.
var ErrFetchLost = errors.New("mail: mailbox contents did not reach the recipient")

// NewPseudonym mints an unlinkable mailbox id for a recipient: a hash of
// recipient-secret material, like a hopid (nobody can link it to the
// node).
func NewPseudonym(stream *rng.Stream) id.ID {
	var seed [32]byte
	stream.Bytes(seed[:])
	return id.Hash(seed[:])
}

// Pending returns the number of messages waiting for a pseudonym.
func (s *Service) Pending(pseudonym id.ID) int { return len(s.boxes[pseudonym]) }

// Send deposits mail for a pseudonym through the sender's tunnel. When
// withReply is set, a single-use reply tunnel (formed from the sender's
// pool, disjoint from t) is attached so the recipient can answer.
// Returns the encoded reply bid the sender should watch, or the zero id
// when no reply was requested.
func (s *Service) Send(sender *core.Initiator, t *core.Tunnel, pseudonym id.ID, body []byte, withReply bool, stream *rng.Stream) (id.ID, error) {
	msg := Message{Body: body}
	var bid id.ID
	if withReply {
		rep, err := sender.FormTunnel(t.Length())
		if err != nil {
			return id.ID{}, fmt.Errorf("mail: forming reply tunnel: %w", err)
		}
		bid = sender.NewBid()
		rt, err := core.BuildReply(rep, nil, bid, stream)
		if err != nil {
			return id.ID{}, err
		}
		msg.ReplyTunnel = rt.Encode()
	}
	env, err := core.BuildForward(t, nil, pseudonym, encodeMessage(msg), stream)
	if err != nil {
		return id.ID{}, err
	}
	res, err := s.svc.DeliverForward(sender.Node().Ref().Addr, env)
	if err != nil {
		return id.ID{}, fmt.Errorf("mail: deposit: %w", err)
	}
	// The mailbox host (owner of the pseudonym) stores the message.
	got, err := decodeMessage(res.Payload)
	if err != nil {
		return id.ID{}, err
	}
	s.boxes[pseudonym] = append(s.boxes[pseudonym], got)
	return bid, nil
}

// Fetch drains a pseudonym's mailbox anonymously: the request travels the
// recipient's forward tunnel, the mailbox contents come back over the
// recipient's reply tunnel. The mailbox host learns neither who fetched
// nor where the mail went.
func (s *Service) Fetch(recipient *core.Initiator, fwd, rep *core.Tunnel, pseudonym id.ID, stream *rng.Stream) ([]Message, error) {
	bid := recipient.NewBid()
	rt, err := core.BuildReply(rep, nil, bid, stream)
	if err != nil {
		return nil, err
	}
	env, err := core.BuildForward(fwd, nil, pseudonym, rt.Encode(), stream)
	if err != nil {
		return nil, err
	}
	fres, err := s.svc.DeliverForward(recipient.Node().Ref().Addr, env)
	if err != nil {
		return nil, fmt.Errorf("mail: fetch request: %w", err)
	}
	// Mailbox host: bundle pending mail and send it down the reply
	// tunnel, then clear the box.
	pending := s.boxes[pseudonym]
	w := wire.NewWriter(64)
	w.Uint32(uint32(len(pending)))
	for _, m := range pending {
		w.Blob(encodeMessage(m))
	}
	rt2, err := core.DecodeReplyTunnel(fres.Payload)
	if err != nil {
		return nil, err
	}
	rres, err := s.svc.DeliverReply(fres.DestNode.Addr, &core.ReplyEnvelope{
		Target: rt2.First, Hint: rt2.FirstHint, Onion: rt2.Onion, Data: w.Bytes(),
	})
	if err != nil {
		return nil, fmt.Errorf("mail: fetch reply: %w", err)
	}
	if rres.LandedNode.ID != recipient.Node().ID() || rres.Target != bid {
		return nil, ErrFetchLost
	}
	delete(s.boxes, pseudonym)

	r := wire.NewReader(rres.Data)
	count := int(r.Uint32())
	out := make([]Message, 0, count)
	for i := 0; i < count; i++ {
		m, err := decodeMessage(r.Blob())
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("mail: fetch payload: %w", err)
	}
	return out, nil
}

// Reply answers a received message over its attached single-use reply
// tunnel, from the node at fromAddr (typically the recipient's node). The
// responder needs no tunnel of its own: anonymity for the original sender
// comes from the reply tunnel itself. Returns the final target id (the
// sender's bid) so tests can correlate.
func (s *Service) Reply(fromAddr simnet.Addr, m Message, body []byte) (id.ID, error) {
	if len(m.ReplyTunnel) == 0 {
		return id.ID{}, errors.New("mail: message carries no reply tunnel")
	}
	rt, err := core.DecodeReplyTunnel(m.ReplyTunnel)
	if err != nil {
		return id.ID{}, err
	}
	rres, err := s.svc.DeliverReply(fromAddr, &core.ReplyEnvelope{
		Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: body,
	})
	if err != nil {
		return id.ID{}, fmt.Errorf("mail: reply: %w", err)
	}
	return rres.Target, nil
}
