package core

import (
	"fmt"

	"tap/internal/id"
	"tap/internal/pastry"
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
// packet, or the receiver's reorder ring that holds it. The fire-and-forget
// send entries make one private copy of the caller's onion per flow; a
// stream seals each transmission into the onion storage of the packet it
// takes from the freelist. Every hop then peels the onion where it lies and
// passes the same packet on, and the packet — storage included — returns to
// the freelist only once nothing reads its bytes.
type NetEngine struct {
	svc *Service
	net transport.Transport

	// flows holds the outcome callback of every fire-and-forget flow that
	// has not concluded, so a duplicate or late packet of a finished flow
	// can never re-count it.
	nextFlow uint64
	flows    map[uint64]func(Outcome)

	// staleHints records (hop target, address) pairs observed to be dead
	// ends — a direct send that missed, or a hinted address a sender
	// could not reach — so later dispatches fall back to DHT routing
	// instead of repeating the same miss.
	staleHints map[hintKey]struct{}

	// Windowed-stream state (stream.go), reliable messages included.
	nextStream    uint64
	sendStreams   map[uint64]*Stream
	recvStreams   map[uint64]*RecvStream
	closedStreams map[uint64]closedStreamRec
	// Stream structs are carved from chunks; rings are lent from one
	// finished stream to the next (stream.go).
	streamChunk []Stream
	recvChunk   []RecvStream
	sendRings   ringPool[windowSlot]
	recvRings   ringPool[*packet]
	// OnStream, when non-nil, observes each incoming stream when its first
	// segment arrives, so the application can install OnData/OnClose.
	OnStream func(rs *RecvStream)

	// The packet freelist. The event loop is single-threaded, so a plain
	// slice suffices; in steady state a stream, direct or tunnel, allocates
	// nothing (stream.go). Packets are made in chunks, and onion storage is
	// carved from arena, the engine's for its lifetime like the freelist
	// itself.
	pktFree []*packet
	arena   []byte
	// segScratch is where a tunnel stream frames a segment for sealing:
	// BuildForward only reads its payload, so one buffer serves every
	// (re)transmission of every stream.
	segScratch []byte

	// Stats across all flows.
	NetHops    uint64
	HintHits   uint64
	HintMiss   uint64
	FailFlows  uint64 // fire-and-forget flows that died
	StaleHints uint64 // distinct hints invalidated
	// Windowed-stream stats (stream.go).
	StreamSegsSent uint64 // original segment transmissions
	StreamSegsRetx uint64 // segment retransmissions (timeout or fast)
	StreamAcksSent uint64 // stream ACK frames transmitted by receivers
	StreamDupSegs  uint64 // duplicate segment arrivals suppressed
	StreamSegsLost uint64 // segments that died mid-route (node death)

	// DisableAckDedup is a fault-injection seam in the spirit of
	// Service.HopFilter: when set, a receiver forgets the streams it
	// finished, so a late duplicate segment of one — a retransmitted
	// message that raced its ACK — opens a new stream and is handed to the
	// application again. The simulation checker plants it to prove the
	// exactly-once invariant fires. Never set it otherwise.
	DisableAckDedup bool

	// StreamReorderBypass is a fault-injection seam: when set, stream
	// receivers hand every segment to the application in arrival order,
	// skipping the reorder buffer and its dedup. The simulation checker
	// plants it to prove the in-order-stream-delivery invariant fires.
	// Never set it otherwise.
	StreamReorderBypass bool

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

// Outcome reports one completed (or failed) flow, stream or message.
type Outcome struct {
	Flow      uint64
	Delivered bool
	Opened    simnet.Time // streams and messages only: when it opened
	At        simnet.Time
	NetHops   int    // fire-and-forget flows only
	FailedAt  string // empty on success
	// Attempts is the number of end-to-end transmissions: 1 for a
	// fire-and-forget flow, 1 + retransmits for a stream or a message
	// (SendMessage).
	Attempts int
}

// packet kinds.
const (
	kindPayload   byte = iota + 1 // plain payload riding to Target's owner
	kindForward                   // forward-tunnel envelope
	kindReply                     // reply-tunnel envelope
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

	payloadSize int           // kindPayload
	env         Envelope      // kindForward
	renv        ReplyEnvelope // kindReply
	// onion is the full-capacity storage a stream seals env's onion into,
	// or SendReply copies renv's into; it stays with the packet through the
	// freelist. A peel leaves the envelope's onion a sub-slice of it, so it
	// is kept apart.
	onion []byte

	// Windowed-stream fields (stream.go). On kindStream: seq, fin, ackTo
	// — the sender's address, where the receiver's ACKs go — and the
	// segment payload. A direct segment's data aliases the sender's window
	// slot — safe because the slot is rewritten only after the receiver has
	// acknowledged this seq, and any later copy is deduplicated by seq
	// before data is read; a tunnel segment's aliases this packet's onion.
	// On kindStreamAck: cum plus nranges selective ranges, wire.AckVerSACK.
	seq     uint64
	fin     bool
	ackTo   simnet.Addr
	data    []byte
	cum     uint64
	nranges int
	ranges  [wire.MaxAckRanges]wire.AckRange
}

// SizeBytes implements simnet.Message.
func (p *packet) SizeBytes() int {
	const header = 1 + 8 + id.Size + 1
	switch p.kind {
	case kindForward:
		return header + p.env.SizeBytes()
	case kindReply:
		return header + p.renv.SizeBytes()
	case kindStream:
		return header + 8 + 1 + 8 + 2 + len(p.data) // seq, fin, ackTo, len prefix
	case kindStreamAck:
		return header + wire.AckSizeSACK(p.nranges)
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
		flows:         make(map[uint64]func(Outcome)),
		staleHints:    make(map[hintKey]struct{}),
		sendStreams:   make(map[uint64]*Stream),
		recvStreams:   make(map[uint64]*RecvStream),
		closedStreams: make(map[uint64]closedStreamRec),
		sendRings:     make(ringPool[windowSlot]),
		recvRings:     make(ringPool[*packet]),
	}
	// One handler array for every live node: a world's worth of handlers is
	// one allocation.
	refs := svc.OV.LiveRefs()
	hs := make([]nodeHandler, len(refs))
	for i, r := range refs {
		hs[i] = nodeHandler{e: e, addr: r.Addr}
		net.Attach(r.Addr, &hs[i])
	}
	// Joiners get handlers too; departures are handled by simnet drops.
	// Whoever fails a node decides whether it leaves the network: the tap
	// facade detaches every departure, and each experiment chooses its own.
	prevJoin := svc.OV.OnJoin
	svc.OV.OnJoin = func(n *pastry.Node) {
		if prevJoin != nil {
			prevJoin(n)
		}
		addr := n.Ref().Addr
		e.net.Grow(int(addr) + 1)
		e.net.Attach(addr, &nodeHandler{e: e, addr: addr})
	}
	return e
}

// nodeHandler is the engine's network handler at one address.
type nodeHandler struct {
	e    *NetEngine
	addr simnet.Addr
}

// Deliver implements transport.Handler.
func (h *nodeHandler) Deliver(from simnet.Addr, msg simnet.Message) {
	pkt, ok := msg.(*packet)
	if !ok {
		// Traffic that is not tunnel protocol — e.g. cover dummies —
		// is consumed and discarded.
		return
	}
	pkt.lastFrom = from
	h.e.deliver(h.addr, pkt)
}

// finish concludes p at this node: the terminal was reached (delivered) or
// the packet died here. Stream traffic — a segment, sealed in its tunnel
// envelope or out of it, a reliable message included — has its own
// retransmit machinery: one dying mid-route is recovered by the sender's
// RTO, not by a flow outcome, and returns to the freelist it came from.
// Stream ids live in their own space, so the flow table never sees them.
//
// A fire-and-forget flow's outcome fires here, once — duplicate or late
// packets of an already-finished flow are ignored rather than re-counted.
// That read of the origin's table from the node where the packet ended is
// the simulator's oracle, not protocol (DESIGN §8): Figure 6's transfer
// times are measured with it. A reply flow's one packet then goes back to
// the freelist SendReply took it from.
func (e *NetEngine) finish(self simnet.Addr, p *packet, delivered bool, why string) {
	if p.flow >= streamIDBase {
		e.StreamSegsLost++
		e.putPacket(p)
		return
	}
	done, open := e.flows[p.flow]
	if !open {
		return // duplicate or late packet of a finished flow
	}
	delete(e.flows, p.flow)
	if !delivered {
		e.FailFlows++
	}
	if done != nil {
		done(Outcome{Flow: p.flow, Delivered: delivered, At: e.net.Now(), NetHops: p.hops, FailedAt: why, Attempts: 1})
	}
	if p.kind == kindReply {
		e.putPacket(p)
	}
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
		env := &p.env
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
		// Tail hop: the same packet, its envelope spent, carries the
		// payload to the destination owner.
		if e.Tap != nil {
			e.Tap.ExitObserved(self, e.net.Now(), p.flow, layer.Dest)
		}
		p.target = layer.Dest
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
		renv := &p.renv
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

// hintKey identifies one (hop target, hinted address) pair in the stale
// set.
type hintKey struct {
	target id.ID
	addr   simnet.Addr
}

// markStaleHint records a dead-end hint; hintStale queries it. Entries
// never expire: a hop anchor that migrates back to a previously-stale
// address is still reached via DHT routing, just without the shortcut.
func (e *NetEngine) markStaleHint(target id.ID, addr simnet.Addr) {
	k := hintKey{target, addr}
	if _, ok := e.staleHints[k]; ok {
		return
	}
	e.staleHints[k] = struct{}{}
	e.StaleHints++
}

func (e *NetEngine) hintStale(target id.ID, addr simnet.Addr) bool {
	_, ok := e.staleHints[hintKey{target, addr}]
	return ok
}

// launch opens a fire-and-forget flow and transmits p, its one packet — which
// the path will own and rewrite, so it must share no writable bytes with the
// caller — trying the first-hop address hint first.
func (e *NetEngine) launch(from simnet.Addr, p *packet, hint simnet.Addr, done func(Outcome)) uint64 {
	// The packet can conclude, and its callback launch again, before this
	// returns: the id is this frame's, not nextFlow's.
	e.nextFlow++
	flow := e.nextFlow
	e.flows[flow] = done
	p.flow = flow
	e.dispatch(from, p, hint)
	return flow
}

// SendOvert starts a plain overt transfer and returns its flow id: size bytes routed over the
// P2P infrastructure from `from` to the owner of dest. The baseline curve
// of Figure 6.
func (e *NetEngine) SendOvert(from simnet.Addr, dest id.ID, size int, done func(Outcome)) uint64 {
	return e.launch(from, &packet{kind: kindPayload, target: dest, payloadSize: size}, simnet.NoAddr, done)
}

// SendForward starts a fire-and-forget forward-tunnel transfer from the
// initiator's address. With hints inside env (BuildForwardHinted) this is
// TAP_opt; without, TAP_basic. env stays the caller's, intact: the flow
// travels as a private copy. SendMessage is the reliable twin.
func (e *NetEngine) SendForward(from simnet.Addr, env *Envelope, done func(Outcome)) uint64 {
	p := &packet{kind: kindForward, target: env.HopID, env: *env}
	p.env.Sealed = append([]byte(nil), env.Sealed...)
	return e.launch(from, p, env.Hint, done)
}

// WireBytes returns the byte slices a tunnel-protocol message actually
// exposes on the wire, for taps that scan frames for plaintext leaks (the
// no-plaintext-on-wire invariant). Sealed layers are exposed; the legs
// that are plaintext by design are not — a payload packet carries only a
// size, and a stream segment travels from the tunnel exit (or a direct
// sender) to the destination owner in the clear, like any overt transfer.
// Non-protocol messages return nil.
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
	}
	return nil
}

// SendReply starts a reply-tunnel transfer from the responder's address.
// Hops rewrite the onion and never the data, so the flow's private copy is
// of the onion alone, made in the onion storage of a packet from the
// freelist, to which finish returns it.
func (e *NetEngine) SendReply(from simnet.Addr, renv *ReplyEnvelope, done func(Outcome)) uint64 {
	p := e.getPacket()
	if cap(p.onion) < len(renv.Onion) {
		p.onion = e.carve(len(renv.Onion))
	}
	p.kind, p.target, p.renv = kindReply, renv.Target, *renv
	p.renv.Onion = append(p.onion[:0], renv.Onion...)
	return e.launch(from, p, renv.Hint, done)
}
