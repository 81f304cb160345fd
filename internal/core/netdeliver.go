package core

import (
	"fmt"

	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/transport"
	"tap/internal/wire"
)

// NetEngine drives tunnel traffic through a transport, the measurement
// substrate for Figure 6. The same layer formats and hop logic as the
// logical walker apply, but every overlay hop is a real store-and-forward
// network transmission with latency and serialization delay, so
// end-to-end transfer times are meaningful.
//
// The engine is written against the transport seam (internal/transport),
// never a concrete network; the one implementation it has ever been handed
// is simnet.Network (the discrete-event emulator), under which behavior is
// deterministic. The deployed relay is internal/procnode, not this engine
// (ROADMAP item 1). All engine callbacks run on the transport's event loop.
//
// Buffer ownership (DESIGN §9): a packet in flight, its envelope and the
// envelope's onion have exactly one owner — whichever node holds the
// packet. The send entries make one private copy of the caller's onion per
// attempt; every hop then peels that copy where it lies and passes the
// same packet on.
type NetEngine struct {
	svc *Service
	net transport.Transport

	// flows holds every flow whose outcome has not fired yet — reliable or
	// fire-and-forget — so a duplicate or late packet of a finished flow
	// can never re-count it.
	nextFlow uint64
	flows    map[uint64]*flowState

	// Reliability state (reliable.go). rel == nil means the protocol is
	// off and flows behave as fire-and-forget.
	rel    *Reliability
	acked  map[uint64]ackRecord
	jitter *rng.Stream
	// staleHints records (hop target, address) pairs observed to be dead
	// ends — a direct send that missed, or a hinted address a sender
	// could not reach — so later dispatches fall back to DHT routing
	// instead of repeating the same miss.
	staleHints map[hintKey]struct{}

	// Windowed-stream state (stream.go).
	nextStream    uint64
	sendStreams   map[uint64]*Stream
	recvStreams   map[uint64]*RecvStream
	closedStreams map[uint64]closedStreamRec
	// OnStream, when non-nil, observes each incoming stream when its first
	// segment arrives, so the application can install OnData/OnClose.
	OnStream func(rs *RecvStream)

	// Packet and segment-buffer freelists. The event loop is single-
	// threaded, so plain slices suffice; in steady state a direct stream
	// allocates nothing and a tunnel stream only what sealing a segment
	// does (stream.go).
	pktFree  []*packet
	segPools map[int][][]byte
	// segScratch is where a tunnel stream frames a segment for sealing:
	// BuildForward only reads its payload, so one buffer serves every
	// (re)transmission of every stream.
	segScratch []byte

	// Stats across all flows.
	NetHops   uint64
	HintHits  uint64
	HintMiss  uint64
	FailFlows uint64
	// Reliability stats.
	Retransmits   uint64 // extra attempts beyond each flow's first
	AcksSent      uint64 // end-to-end ACKs transmitted by terminals
	AcksRecv      uint64 // ACKs consumed by initiators (first per flow)
	DupDeliveries uint64 // duplicate data arrivals at terminals
	PacketsLost   uint64 // reliable-flow packets that died mid-flight
	StaleHints    uint64 // distinct hints invalidated
	// Windowed-stream stats (stream.go).
	StreamSegsSent  uint64 // original segment transmissions
	StreamSegsRetx  uint64 // segment retransmissions (timeout or fast)
	StreamFastRetx  uint64 // fast retransmits triggered by duplicate ACKs
	StreamTimeouts  uint64 // RTO expirations
	StreamAcksSent  uint64 // stream ACK frames transmitted by receivers
	StreamDupSegs   uint64 // duplicate segment arrivals suppressed
	StreamSegsLost  uint64 // segments that died mid-route (node death)
	StreamBytesRecv uint64 // in-order payload bytes delivered to applications

	// OnDeliver, when non-nil, observes every data arrival at a flow's
	// terminal: dup=false is the first delivery handed to the application,
	// dup=true a suppressed duplicate. The simulation checker counts these
	// to verify exactly-once delivery under retransmission.
	OnDeliver func(flow uint64, dup bool)

	// DisableAckDedup is a fault-injection seam in the spirit of
	// Service.HopFilter: when set, the terminal forgets it already
	// delivered a reliable flow and hands every duplicate arrival to the
	// application as if it were fresh. The simulation checker plants it to
	// prove the exactly-once invariant fires. Never set it otherwise.
	DisableAckDedup bool

	// StreamReorderBypass is a fault-injection seam: when set, stream
	// receivers hand every segment to the application in arrival order,
	// skipping the reorder buffer and its dedup. The simulation checker
	// plants it to prove the in-order-stream-delivery invariant fires.
	// Never set it otherwise.
	StreamReorderBypass bool

	// StreamWindowBypass is a fault-injection seam: when set, stream
	// senders ignore their configured window and keep up to four windows
	// of segments in flight. The simulation checker plants it to prove
	// the window-conservation invariant fires. Never set it otherwise.
	StreamWindowBypass bool

	// Tap, when non-nil, observes the protocol events a node operator
	// can see at its own node: tunnel envelopes received, and exits
	// performed (a tail hop knows it is the tail — it decrypts {D, m}).
	// Adversary instrumentation (internal/timing) filters to the nodes it
	// controls. The flow id is passed for ground-truth evaluation only; a
	// real attacker never sees it, and correlators must not match on it.
	Tap NetTap
}

// NetTap receives node-local protocol observations.
type NetTap interface {
	// EnvelopeReceived fires when a node receives a forward-tunnel
	// envelope addressed to a hop it serves (before decryption).
	EnvelopeReceived(at simnet.Addr, now simnet.Time, from simnet.Addr, flow uint64)
	// EnvelopeForwarded fires when a node relays a tunnel envelope
	// onward (as a hop or as a plain DHT router), with the address it
	// received it from — knowledge a node trivially has about itself,
	// which lets a collusion chain-trace through its own members.
	EnvelopeForwarded(at simnet.Addr, now simnet.Time, from simnet.Addr)
	// ExitObserved fires when a tail hop decrypts an exit layer and
	// learns the destination.
	ExitObserved(at simnet.Addr, now simnet.Time, flow uint64, dest id.ID)
}

// Outcome reports one completed (or failed) flow.
type Outcome struct {
	Flow      uint64
	Delivered bool
	At        simnet.Time
	NetHops   int
	FailedAt  string // empty on success
	// Attempts is the number of end-to-end send attempts (1 without the
	// reliability protocol); Backoff is the time spent waiting in
	// retransmit timers — the gap between the first and last attempt.
	Attempts int
	Backoff  simnet.Time
}

// packet kinds.
const (
	kindPayload   byte = iota + 1 // plain payload riding to Target's owner
	kindForward                   // forward-tunnel envelope
	kindReply                     // reply-tunnel envelope
	kindAck                       // end-to-end delivery ACK (reliability protocol)
	kindStream                    // windowed-stream data segment (stream.go)
	kindStreamAck                 // cumulative+SACK stream acknowledgment (stream.go)
)

// packet is the single wire message type: content plus DHT routing state.
type packet struct {
	kind   byte
	flow   uint64
	target id.ID // DHT routing target; owner of this id consumes/processes
	direct bool  // true when sent straight to an address hint
	hops   int   // network hops taken so far
	// lastFrom is the network-level sender of the most recent hop —
	// what a receiving node sees as its predecessor. The exit hop sends the
	// packet it peeled on as the payload leg, so the field rides along.
	lastFrom simnet.Addr

	payloadSize int            // kindPayload
	env         *Envelope      // kindForward
	renv        *ReplyEnvelope // kindReply

	// Reliability fields, stamped on every attempt and kept by the exit's
	// payload leg. reliable says the flow can re-send: its terminal ACKs a
	// delivery, to ackTo — the initiator-side address — and a death is the
	// retransmit timer's to recover. dataHops is, on a kindAck, the hop
	// count of the data packet being acknowledged.
	reliable bool
	ackTo    simnet.Addr
	dataHops int

	// Windowed-stream fields (stream.go). On kindStream: seq, fin, and the
	// segment payload (data aliases the sender's window slot — safe because
	// the slot is rewritten only after the receiver has acknowledged this
	// seq, and any later copy is deduplicated by seq before data is read).
	// On kindStreamAck: cum plus the selective ranges, wire.AckVerSACK.
	seq    uint64
	fin    bool
	data   []byte
	cum    uint64
	ranges []wire.AckRange
}

// SizeBytes implements simnet.Message.
func (p *packet) SizeBytes() int {
	const header = 1 + 8 + id.Size + 1
	switch p.kind {
	case kindForward:
		return header + p.env.SizeBytes()
	case kindReply:
		return header + p.renv.SizeBytes()
	case kindAck:
		return header + 8
	case kindStream:
		return header + 8 + 1 + 8 + 2 + len(p.data) // seq, fin, ackTo, len prefix
	case kindStreamAck:
		return header + wire.AckSizeSACK(len(p.ranges))
	default:
		return header + p.payloadSize
	}
}

// NewNetEngine attaches handlers for every currently live node and for
// future joiners. net is any transport implementation; the experiments
// and tests pass the simulated network, which satisfies the interface
// directly.
func NewNetEngine(svc *Service, net transport.Transport) *NetEngine {
	e := &NetEngine{
		svc: svc, net: net,
		flows:         make(map[uint64]*flowState),
		acked:         make(map[uint64]ackRecord),
		staleHints:    make(map[hintKey]struct{}),
		sendStreams:   make(map[uint64]*Stream),
		recvStreams:   make(map[uint64]*RecvStream),
		closedStreams: make(map[uint64]closedStreamRec),
		segPools:      make(map[int][][]byte),
		jitter:        svc.Stream.Split("netengine-jitter"),
	}
	for _, r := range svc.OV.LiveRefs() {
		e.attach(r.Addr)
	}
	// Joiners get handlers too; departures are handled by simnet drops
	// (the experiment harness detaches failed nodes from the network).
	prevJoin := svc.OV.OnJoin
	svc.OV.OnJoin = func(n *pastry.Node) {
		if prevJoin != nil {
			prevJoin(n)
		}
		e.net.Grow(int(n.Ref().Addr) + 1)
		e.attach(n.Ref().Addr)
	}
	return e
}

// attach binds the engine's handler to one address.
func (e *NetEngine) attach(addr simnet.Addr) {
	e.net.Attach(addr, simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) {
		pkt, ok := msg.(*packet)
		if !ok {
			// Traffic that is not tunnel protocol — e.g. cover dummies —
			// is consumed and discarded.
			return
		}
		pkt.lastFrom = from
		e.deliver(addr, pkt)
	}))
}

// finish concludes p at this node: the terminal was reached (delivered) or
// the packet died here. The packet says what kind of flow it serves, so the
// node needs nothing of the initiator's to decide: a reliable flow's
// delivery is ACKed end to end and its death left to the retransmit timer;
// a fire-and-forget flow's outcome fires once — duplicate or late packets
// of an already-finished flow are ignored rather than re-counted.
func (e *NetEngine) finish(self simnet.Addr, p *packet, delivered bool, why string) {
	if p.flow >= streamIDBase {
		// Stream traffic — a segment, sealed in its tunnel envelope or out
		// of it — has its own retransmit machinery: one dying mid-route is
		// recovered by the sender's RTO, not by a flow outcome, and returns
		// to the freelist it came from. Stream ids live in their own space,
		// so the flow table below must never see them.
		e.StreamSegsLost++
		e.putPacket(p)
		return
	}
	if p.reliable {
		if delivered {
			e.ackDelivery(self, p)
			return
		}
		// Sim-only oracle, not protocol: the node where a packet died tells
		// the origin's still-open flow why, so an exhausted flow's Outcome
		// names the cause. A deployed initiator sees only a missing ACK.
		if st, open := e.flows[p.flow]; open {
			st.lastErr = why
			e.PacketsLost++
		}
		return
	}
	// Fire-and-forget: the terminal fires the initiator's outcome — the
	// same oracle, which Figure 6's transfer times are measured with.
	st, open := e.flows[p.flow]
	if !open {
		return // duplicate or late packet of a finished flow
	}
	if delivered {
		e.observeDeliver(p.flow, false)
	} else {
		e.FailFlows++
	}
	e.conclude(p.flow, st, Outcome{Delivered: delivered, NetHops: p.hops, FailedAt: why})
}

// conclude is the one place a flow's outcome fires: the flow leaves the
// table, so nothing can conclude it twice, and the callback gets o with
// the flow's identity, the time and its attempt history filled in.
func (e *NetEngine) conclude(flow uint64, st *flowState, o Outcome) {
	delete(e.flows, flow)
	if st.done == nil {
		return
	}
	o.Flow, o.At = flow, e.net.Now()
	o.Attempts, o.Backoff = st.attempts, st.lastAt-st.firstAt
	st.done(o)
}

// send transmits p one network hop.
func (e *NetEngine) send(from, to simnet.Addr, p *packet) {
	// Relays of tunnel envelopes are observable self-knowledge for a
	// wiretap at `from`: it can later recognize receptions downstream of
	// its own relaying as continuations. Originations (hops == 0) are not
	// relays.
	if e.Tap != nil && p.kind == kindForward && p.hops > 0 {
		e.Tap.EnvelopeForwarded(from, e.net.Now(), p.lastFrom)
	}
	p.hops++
	e.NetHops++
	e.net.Send(from, to, p)
}

// forwardToward moves p one Pastry hop toward its target, or processes it
// here if this node is the destination, and reports which.
func (e *NetEngine) forwardToward(self simnet.Addr, p *packet) (here bool) {
	next, here, alive := e.svc.routeAt(self, p.target)
	switch {
	case !alive:
		e.finish(self, p, false, fmt.Sprintf("node %d died holding packet", self))
	case here:
		e.process(self, p)
	default:
		e.send(self, next, p)
	}
	return here
}

// serves reports whether self can act on p where a hint landed it: a tunnel
// envelope needs its hop's anchor held here, a stream segment a live node
// that owns the target id.
func (e *NetEngine) serves(self simnet.Addr, p *packet) bool {
	switch p.kind {
	case kindForward, kindReply:
		return e.svc.holds(self, p.target)
	case kindStream:
		_, here, alive := e.svc.routeAt(self, p.target)
		return alive && here
	}
	return false
}

// deliver is the per-node network handler.
func (e *NetEngine) deliver(self simnet.Addr, p *packet) {
	if p.kind == kindAck {
		e.handleAck(p)
		return
	}
	if p.kind == kindStreamAck {
		e.handleStreamAck(p)
		return
	}
	if p.direct {
		// A hint shortcut landed here. If this node can act on the packet,
		// process it; otherwise the hint was stale and the node falls back
		// to DHT routing toward the target.
		p.direct = false
		if e.serves(self, p) {
			e.HintHits++
			e.process(self, p)
			return
		}
		e.HintMiss++
		// The hinted node does not serve this hop any more: remember the
		// dead end so retransmissions and later flows go via the DHT.
		e.markStaleHint(p.target, self)
		e.forwardToward(self, p)
		return
	}
	e.forwardToward(self, p)
}

// process handles a packet that has reached the owner of its target id.
func (e *NetEngine) process(self simnet.Addr, p *packet) {
	switch p.kind {
	case kindPayload:
		e.finish(self, p, true, "")

	case kindStream:
		e.handleStreamData(self, p)

	case kindForward:
		env := p.env
		if e.Tap != nil && e.svc.holds(self, env.HopID) {
			e.Tap.EnvelopeReceived(self, e.net.Now(), p.lastFrom, p.flow)
		}
		if !e.svc.hopServes(self, env.HopID) {
			e.finish(self, p, false, fmt.Sprintf("hop %s dropped at node %d", env.HopID.Short(), self))
			return
		}
		anchor, err := e.svc.anchorAt(self, env.HopID)
		if err != nil {
			e.finish(self, p, false, fmt.Sprintf("hop %s lost", env.HopID.Short()))
			return
		}
		layer, err := env.Peel(anchor)
		if err != nil {
			e.finish(self, p, false, fmt.Sprintf("hop %s: %v", env.HopID.Short(), err))
			return
		}
		if !layer.IsExit {
			p.target = layer.Next
			e.dispatch(self, p, layer.NextHint)
			return
		}
		// Tail hop: the same packet, stripped of its envelope, carries the
		// payload to the destination owner.
		if e.Tap != nil {
			e.Tap.ExitObserved(self, e.net.Now(), p.flow, layer.Dest)
		}
		p.env, p.target = nil, layer.Dest
		if wire.IsStreamSegment(layer.Payload) {
			// A windowed-stream segment rode the tunnel: unwrap the
			// framing. The data slice aliases the peeled onion, which is
			// this packet's own.
			stream, seq, fin, ackTo, data, err := wire.ReadStreamSegment(layer.Payload)
			if err != nil {
				e.StreamSegsLost++
				e.putPacket(p)
				return
			}
			p.kind, p.flow = kindStream, stream
			p.seq, p.fin, p.data = seq, fin, data
			p.ackTo = simnet.Addr(ackTo)
		} else {
			p.kind, p.payloadSize = kindPayload, len(layer.Payload)
		}
		e.forwardToward(self, p)

	case kindReply:
		renv := p.renv
		anchor, err := e.svc.anchorAt(self, renv.Target)
		if err != nil {
			// No anchor here: final delivery point (the initiator, when
			// the tunnel held).
			e.finish(self, p, true, "")
			return
		}
		if !e.svc.hopServes(self, renv.Target) {
			e.finish(self, p, false, fmt.Sprintf("reply hop %s dropped at node %d", renv.Target.Short(), self))
			return
		}
		if err := renv.Peel(anchor); err != nil {
			e.finish(self, p, false, fmt.Sprintf("reply hop %s: %v", renv.Target.Short(), err))
			return
		}
		p.target = renv.Target
		e.dispatch(self, p, renv.Hint)
	}
}

// dispatch sends a packet toward its target, trying the address hint
// first. A hint to a detached or crashed address is detected by the
// sender (the connection attempt fails), invalidated, and the packet
// falls back to DHT routing immediately; a hint already known stale is
// skipped without a connection attempt.
func (e *NetEngine) dispatch(self simnet.Addr, p *packet, hint simnet.Addr) {
	switch {
	case hint == simnet.NoAddr:
	case e.hintStale(p.target, hint):
		e.HintMiss++
	case hint == self:
		// The hint names the node the packet is already at: the best
		// possible hit when routing ends here too, as the walker's locate
		// counts it. A mere replica holder routes on, counted as neither.
		if e.forwardToward(self, p) {
			e.HintHits++
		}
		return
	case e.net.Reachable(hint):
		p.direct = true
		e.send(self, hint, p)
		return
	default:
		e.markStaleHint(p.target, hint)
		e.HintMiss++
	}
	e.forwardToward(self, p)
}

// launch opens a flow and makes its first attempt. build returns one
// attempt's packet — which the path will own and rewrite, so it must share
// no writable bytes with the caller or with another attempt — and the
// first-hop address hint to try. Under the reliability protocol build is
// kept to make the retransmissions (size seeds the timeout); otherwise the
// flow is fire-and-forget and opts is ignored.
func (e *NetEngine) launch(from simnet.Addr, size int, opts SendOpts, done func(Outcome), build func() (*packet, simnet.Addr)) uint64 {
	// The first attempt can conclude, and its callback launch again, before
	// this returns: the id is this frame's, not nextFlow's.
	e.nextFlow++
	flow := e.nextFlow
	st := &flowState{origin: from, done: done, opts: opts, firstAt: e.net.Now()}
	e.flows[flow] = st
	if e.rel != nil {
		st.resend = build
		st.rto = e.initialRTO(size, opts)
	}
	e.attempt(flow, st, build)
	return flow
}

// SendOvert starts a plain overt transfer and returns its flow id: size bytes routed over the
// P2P infrastructure from `from` to the owner of dest. The baseline curve
// of Figure 6.
func (e *NetEngine) SendOvert(from simnet.Addr, dest id.ID, size int, done func(Outcome)) uint64 {
	return e.launch(from, size, SendOpts{}, done, func() (*packet, simnet.Addr) {
		return &packet{kind: kindPayload, target: dest, payloadSize: size}, simnet.NoAddr
	})
}

// SendForward starts a forward-tunnel transfer from the initiator's
// address. With hints inside env (BuildForwardHinted) this is TAP_opt;
// without, TAP_basic. env stays the caller's, intact: each attempt travels
// as a private copy.
func (e *NetEngine) SendForward(from simnet.Addr, env *Envelope, done func(Outcome)) uint64 {
	return e.SendForwardOpt(from, env, SendOpts{}, done)
}

// SendForwardOpt is SendForward with per-flow options: a custom attempt
// budget (health probes) and the tunnel binding that lets exhaustion drop
// a dead tunnel's hints. The options only apply under the
// reliability protocol; a fire-and-forget flow ignores them.
func (e *NetEngine) SendForwardOpt(from simnet.Addr, env *Envelope, opts SendOpts, done func(Outcome)) uint64 {
	return e.launch(from, env.SizeBytes(), opts, done, func() (*packet, simnet.Addr) {
		own := *env
		own.Sealed = append([]byte(nil), env.Sealed...)
		return &packet{kind: kindForward, target: env.HopID, env: &own}, env.Hint
	})
}

// WireBytes returns the byte slices a tunnel-protocol message actually
// exposes on the wire, for taps that scan frames for plaintext leaks (the
// no-plaintext-on-wire invariant). Payload packets carry only a size,
// ACKs only a hop count; neither exposes bytes. Non-protocol messages
// return nil.
func WireBytes(msg simnet.Message) [][]byte {
	p, ok := msg.(*packet)
	if !ok {
		return nil
	}
	switch p.kind {
	case kindForward:
		return [][]byte{p.env.Sealed}
	case kindReply:
		return [][]byte{p.renv.Onion, p.renv.Data}
	case kindStream:
		// Stream segments between tunnel exit (or direct sender) and the
		// destination owner expose their payload, like any overt transfer.
		return [][]byte{p.data}
	}
	return nil
}

// SendReply starts a reply-tunnel transfer from the responder's address.
// Hops rewrite the onion and never the data, so an attempt's private copy
// is of the onion alone.
func (e *NetEngine) SendReply(from simnet.Addr, renv *ReplyEnvelope, done func(Outcome)) uint64 {
	return e.launch(from, renv.SizeBytes(), SendOpts{}, done, func() (*packet, simnet.Addr) {
		own := *renv
		own.Onion = append([]byte(nil), renv.Onion...)
		return &packet{kind: kindReply, target: renv.Target, renv: &own}, renv.Hint
	})
}
