// Package session implements the motivating application from the paper's
// introduction: long-standing (remote-login-style) sessions that must
// survive node failures on the anonymous path. "Current tunneling
// techniques have a problem in maintaining long-standing remote login
// sessions, if a node on a tunnel fails. However, TAP can support
// long-standing remote login sessions in the face of node failures."
//
// A Session binds a forward tunnel and a reply tunnel between an
// initiator and a server key. Each Exchange carries one request down the
// forward tunnel and one response back over the reply tunnel. The
// fixed-node baseline (FixedSession) exists for the comparison: it dies
// with the first relay failure.
package session

import (
	"errors"
	"fmt"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/rng"
)

// Handler is the server side of a session: it receives a request payload
// and produces a response. In the simulation the handler runs at the node
// owning the server key.
type Handler func(req []byte) []byte

// Session is a TAP-backed long-standing session.
type Session struct {
	in     *core.Initiator
	fwd    *core.Tunnel
	rep    *core.Tunnel
	server id.ID
	stream *rng.Stream

	exchanges int
}

// Errors.
var (
	ErrSessionBroken = errors.New("session: tunnel broken (anchor lost); session must be re-established")
	ErrReplyLost     = errors.New("session: reply did not return to the initiator")
)

// Open establishes a session from the initiator to the owner of server,
// forming fresh forward and reply tunnels of length l from the
// initiator's anchor pool (which must hold at least 2·l live anchors).
func Open(in *core.Initiator, server id.ID, l int, stream *rng.Stream) (*Session, error) {
	tunnels, err := in.FormDisjointTunnels(2, l)
	if err != nil {
		return nil, fmt.Errorf("session: forming tunnels: %w", err)
	}
	return &Session{in: in, fwd: tunnels[0], rep: tunnels[1], server: server, stream: stream}, nil
}

// Exchanges returns the number of successful request/response round
// trips.
func (s *Session) Exchanges() int { return s.exchanges }

// Exchange sends one request and returns the server's response. The
// session survives any hop-node failures as long as every anchor keeps a
// live replica; a lost anchor surfaces as ErrSessionBroken.
func (s *Session) Exchange(req []byte, handle Handler) ([]byte, error) {
	bid := s.in.NewBid()
	rt, err := core.BuildReply(s.rep, nil, bid, s.stream)
	if err != nil {
		return nil, err
	}
	// The request carries the reply tunnel so the server can answer.
	payload := append(rt.Encode(), req...)
	prefix := len(rt.Encode())
	env, err := core.BuildForward(s.fwd, nil, s.server, payload, s.stream)
	if err != nil {
		return nil, err
	}
	fres, err := s.in.Service().DeliverForward(s.in.Node().Ref().Addr, env)
	if err != nil {
		if errors.Is(err, core.ErrHopLost) {
			return nil, fmt.Errorf("%w: %v", ErrSessionBroken, err)
		}
		return nil, err
	}
	// Server side: handle and reply over the embedded tunnel.
	rt2, err := core.DecodeReplyTunnel(fres.Payload[:prefix])
	if err != nil {
		return nil, err
	}
	respData := handle(fres.Payload[prefix:])
	rres, err := s.in.Service().DeliverReply(fres.DestNode.Addr, &core.ReplyEnvelope{
		Target: rt2.First, Hint: rt2.FirstHint, Onion: rt2.Onion, Data: respData,
	})
	if err != nil {
		return nil, err
	}
	if rres.LandedNode.ID != s.in.Node().ID() || rres.Target != bid {
		return nil, ErrReplyLost
	}
	s.exchanges++
	return rres.Data, nil
}

// FixedSession is the baseline: the same exchange pattern over fixed-node
// tunnels. One relay failure kills it permanently.
type FixedSession struct {
	svc    *core.Service
	fwd    *core.FixedTunnel
	server id.ID
	stream *rng.Stream

	exchanges int
}

// OpenFixed establishes a baseline session.
func OpenFixed(svc *core.Service, server id.ID, l int, stream *rng.Stream) (*FixedSession, error) {
	ft, err := core.FormFixed(svc.OV, l, stream)
	if err != nil {
		return nil, err
	}
	return &FixedSession{svc: svc, fwd: ft, server: server, stream: stream}, nil
}

// Exchanges returns the number of successful round trips.
func (s *FixedSession) Exchanges() int { return s.exchanges }

// Exchange sends one request over the fixed tunnel. The response returns
// over the same fixed path (as those systems do), so it fails if any
// relay is down in either direction.
func (s *FixedSession) Exchange(req []byte, handle Handler) ([]byte, error) {
	env, err := core.BuildFixedForward(s.fwd, s.server, req, s.stream)
	if err != nil {
		return nil, err
	}
	_, payload, err := s.svc.DeliverFixed(s.fwd, env)
	if err != nil {
		return nil, err
	}
	resp := handle(payload)
	// Reply retraces the fixed path; aliveness is the only requirement
	// for the model (layer keys are symmetric and already shared).
	if !s.fwd.Alive(s.svc.OV) {
		return nil, core.ErrRelayDead
	}
	s.exchanges++
	return resp, nil
}
