package core

import (
	"fmt"
	"slices"
	"time"

	"tap/internal/id"
	"tap/internal/simnet"
	"tap/internal/wire"
)

// This file implements the engine's one reliability protocol: a pipelined
// sliding-window stream over a tunnel or the overt path. A Stream keeps a
// configurable window of segments in flight (its SendWindow, window.go,
// which the deployment's initiator drives too), acknowledges them with
// cumulative + selective (SACK) frames — wire-versioned in internal/wire —
// estimates its retransmit timeout from measured RTTs (SRTT/RTTVAR,
// RFC 6298 coefficients, Karn's rule on retransmitted segments), and
// recovers single losses by fast retransmit on duplicate ACKs instead of
// waiting out a full RTO. A reliable single message (SendMessage) is a
// window-1 tunnel stream whose one segment carries the FIN.
//
// Segments travel in one of two modes. A direct stream rides kindStream
// packets routed (or hint-shortcut) to the destination id's owner — the
// overt bulk path, and the zero-allocation benchmark path. A tunnel
// stream seals every segment as a §5 forward envelope over the owner's
// tunnel; the tunnel exit unwraps the segment framing and routes it
// onward, so the initiator stays anonymous while the window keeps the
// pipe full. Acknowledgments return over the overt path to the sender's
// address.
//
// A stream's hot path is zero-allocation in steady state, in either mode:
// a segment is a window into the content the stream was handed, window
// slots are a ring, packets come from a freelist with their ACK ranges
// inline, and the retransmit timer re-arms the window itself, an event
// that fits the kernel's slot arena (TestStreamSteadyStateZeroAlloc). A tunnel stream seals each transmission
// into the onion storage of the packet that carries it; every hop peels
// that onion where it lies, and the packet, storage and all, returns to the
// freelist at the receiver (TestStreamTunnelSteadyStateAllocBudget). The
// one rule is that whoever holds the packet owns its bytes: the receiver's
// reorder ring holds the packets of early segments, not slices into them,
// and a packet goes back only once its data has been handed over.

// streamIDBase offsets stream ids away from fire-and-forget flow ids so the
// two id spaces can never collide in the engine's shared packet field.
const streamIDBase uint64 = 1 << 62

// recvWindowCap bounds the receive-side reorder buffer: segments more
// than this far ahead of the in-order cursor are dropped (the sender
// retransmits them once the window slides). Four times the default send
// window keeps the drop path unreachable for well-behaved senders.
const recvWindowCap = 256

// StreamConfig tunes one windowed stream. The zero value gets defaults.
type StreamConfig struct {
	// Window is the maximum number of unacknowledged segments in flight.
	// Default 32.
	Window int
	// SegSize is the payload capacity of one segment. Default 1024.
	SegSize int
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Window == 0 {
		c.Window = 32
	}
	if c.SegSize == 0 {
		c.SegSize = 1024
	}
	return c
}

// The stream's loss-recovery policy, beside the window's own (window.go).
const (
	// streamInitRTO is the retransmit timeout before the first RTT sample
	// — generous, because a tunnel round trip spans many store-and-forward
	// hops; the estimator converges after one ACK.
	streamInitRTO = time.Second
	// streamMinRTO floors the estimated timeout.
	streamMinRTO = 20 * time.Millisecond
	// streamMaxRetries bounds per-segment retransmissions before a bulk
	// stream fails; a message sets its own budget (SendMessage).
	streamMaxRetries = 12
	// hintInvalidateAfter is the number of consecutive RTO expirations
	// after which a tunnel stream stops trusting the tunnel's remembered hop
	// addresses and drops them all — the failure-time cleanup, run early. A
	// dispatch-time miss marks only the hint it tried, so without this a
	// stream whose segments die beyond the first hop keeps dispatching into
	// the same poisoned hints until its budget runs out.
	hintInvalidateAfter = 3
)

// Stream is the sender side of one windowed stream. Open with
// NetEngine.OpenStream (direct mode) or OpenTunnelStream (segments sealed
// over a forward tunnel), then hand it its content with WriteAll. A Stream
// belongs to the simulation's event loop goroutine. It keeps the content it
// was handed, and every copy of segment seq it sends is read from there
// (segment).
type Stream struct {
	SendWindow

	eng    *NetEngine
	id     uint64
	origin simnet.Addr
	dest   id.ID
	cfg    StreamConfig

	// Direct mode: an optional address hint for the destination owner.
	destHint simnet.Addr
	// Tunnel mode: segments are sealed over tun with its hints, and the
	// stream starts from and feeds its backoff memory.
	tun *Tunnel

	// content is what the stream sends; finSeq, the number of its last
	// segment, is fixed with it.
	content []byte
	finSeq  uint64
	failWhy string
	opened  simnet.Time

	// OnComplete fires once with the stream's Outcome: Delivered when
	// every segment including the FIN is acknowledged, false when the
	// stream failed.
	OnComplete func(Outcome)

	SegsRetx uint64 // retransmissions so far
}

// closedStreamRec remembers a finished incoming stream so late duplicate
// segments are re-ACKed rather than re-delivered.
type closedStreamRec struct {
	ackTo simnet.Addr
	cum   uint64
}

// OpenStream opens a direct windowed stream from origin to the owner of
// dest, optionally hinting the owner's address (NoAddr for pure DHT
// routing).
func (e *NetEngine) OpenStream(origin simnet.Addr, dest id.ID, hint simnet.Addr, cfg StreamConfig) *Stream {
	return e.openStream(origin, dest, hint, nil, cfg)
}

// OpenTunnelStream opens a windowed stream whose segments each ride the
// owner's forward tunnel as sealed envelopes, exiting toward the owner of
// dest. Retransmissions re-seal and re-resolve hints, so a segment lost
// to a hop crash is re-driven through whichever replica now holds the
// anchor.
func (e *NetEngine) OpenTunnelStream(origin simnet.Addr, tun *Tunnel, dest id.ID, cfg StreamConfig) *Stream {
	return e.openStream(origin, dest, simnet.NoAddr, tun, cfg)
}

// SendMessage delivers payload reliably to the owner of dest over tun (nil:
// the overt path, as a direct stream) and returns the message's stream id.
// A message is a window-1 tunnel stream
// whose one segment carries the FIN: the receiver delivers it once and
// re-ACKs any duplicate, and each timeout retransmits it into the recovered
// tunnel — re-sealed, re-resolving every hop — up to attempts transmissions
// in all. done (optional) fires once with the message's stream Outcome:
// Delivered when the ACK came home, Attempts = 1 + retransmits, FailedAt
// the failure reason. Every transmission reads payload, so it must not
// change until done fires.
func (e *NetEngine) SendMessage(origin simnet.Addr, tun *Tunnel, dest id.ID, payload []byte, attempts int, done func(Outcome)) uint64 {
	return e.sendMessage(origin, tun, dest, payload, attempts, 0, done)
}

// sendMessage is SendMessage with an optional fixed first timeout: rto > 0
// replaces both the initial and the tunnel's inherited timeout, so a
// one-transmission message fails exactly rto after it was sent — the pool's
// probe deadline.
func (e *NetEngine) sendMessage(origin simnet.Addr, tun *Tunnel, dest id.ID, payload []byte, attempts int, rto simnet.Time, done func(Outcome)) uint64 {
	// One segment, the FIN, numbered 0, carries the whole payload.
	s := e.openStream(origin, dest, simnet.NoAddr, tun, StreamConfig{Window: 1, SegSize: len(payload)})
	s.maxRetries = attempts - 1
	if rto > 0 {
		s.rto = rto
	}
	s.OnComplete = done
	s.content = payload
	s.fill()
	return s.id
}

func (e *NetEngine) openStream(origin simnet.Addr, dest id.ID, hint simnet.Addr, tun *Tunnel, cfg StreamConfig) *Stream {
	cfg = cfg.withDefaults()
	e.nextStream++
	s := carveOne(&e.streamChunk)
	*s = Stream{
		eng:      e,
		id:       streamIDBase + e.nextStream,
		origin:   origin,
		dest:     dest,
		destHint: hint,
		tun:      tun,
		cfg:      cfg,
		opened:   e.net.Now(),
	}
	// A ring of the right size, lent by a finished stream, is kept by
	// Reset.
	s.ring = e.sendRings.take(cfg.Window)
	s.Reset(e.net, s, cfg.Window, streamInitRTO, streamMinRTO, streamMaxRetries)
	if tun != nil {
		// Per-tunnel backoff memory: a stream over a tunnel that recently
		// proved lossy inherits the backed-off timeout instead of
		// resetting it and hammering the same loss.
		if stored := tun.loadRTO(); stored > s.rto {
			s.rto = stored
		}
	}
	e.sendStreams[s.id] = s
	return s
}

// ID returns the stream id, shared with the receive side.
func (s *Stream) ID() uint64 { return s.id }

// Done reports whether every segment including the FIN was acknowledged.
func (s *Stream) Done() bool { return s.done }

// Failed reports stream failure and its reason.
func (s *Stream) Failed() (bool, string) { return s.failed, s.failWhy }

// MaxInflightSegs returns the peak number of simultaneously
// unacknowledged segments — the window-conservation observable.
func (s *Stream) MaxInflightSegs() int { return s.maxInflight }

// WriteAll sends content through the window — what fits now, the rest as
// acknowledgments free space — and an empty FIN right after its last byte.
// Every transmission reads content, so it must not change until the stream
// completes or fails.
func (s *Stream) WriteAll(content []byte) {
	s.content = content
	s.finSeq = uint64((len(content) + s.cfg.SegSize - 1) / s.cfg.SegSize)
	s.fill()
}

// fill claims and transmits segments up to the FIN while the window has
// room. A finished or failed stream has lent its ring away, so HasRoom
// stops it.
func (s *Stream) fill() {
	for s.sndNxt <= s.finSeq && s.HasRoom() {
		s.Transmit(s.Claim())
	}
}

// segment returns the payload of segment seq: the content's SegSize bytes
// from seq·SegSize on, fewer at its end, none past it.
func (s *Stream) segment(seq uint64) []byte {
	lo := min(int(seq)*s.cfg.SegSize, len(s.content))
	return s.content[lo:min(lo+s.cfg.SegSize, len(s.content))]
}

// Send puts one copy of segment seq on the wire in the stream's transport
// mode (WindowOwner).
func (s *Stream) Send(seq uint64, rtx int) {
	e := s.eng
	fin := seq == s.finSeq
	data := s.segment(seq)
	if rtx == 0 {
		e.StreamSegsSent++
	} else {
		s.SegsRetx++
		e.StreamSegsRetx++
	}
	if s.tun == nil {
		p := e.getPacket()
		p.kind = kindStream
		p.flow = s.id
		p.target = s.dest
		p.seq = seq
		p.fin = fin
		p.data = data
		p.ackTo = s.origin
		e.dispatch(s.origin, p, s.destHint)
		return
	}
	// Tunnel mode: seal the framed segment as a forward envelope, into the
	// onion storage of the packet that carries it. Each (re)transmission
	// re-reads the tunnel's hints, preserving the §6 failover semantics of
	// the reliability layer — and is a fresh onion, which the path owns
	// from here on.
	w := wire.NewWriterOn(e.segScratch[:0])
	wire.AppendStreamSegment(w, s.id, seq, fin, int64(s.origin), data)
	e.segScratch = w.Bytes()
	p := e.getPacket()
	if need := forwardSize(s.tun.Length(), len(e.segScratch)); cap(p.onion) < need {
		p.onion = e.carve(need)
	}
	p.env.Sealed = p.onion
	if err := buildForwardHintedInto(&p.env, s.tun, s.dest, e.segScratch, e.svc.Stream); err != nil {
		e.putPacket(p)
		s.fail(fmt.Sprintf("sealing segment %d: %v", seq, err))
		return
	}
	p.onion = p.env.Sealed
	p.kind = kindForward
	p.flow = s.id
	p.target = p.env.HopID
	p.ackTo = s.origin
	e.dispatch(s.origin, p, p.env.Hint)
}

// Backoff is the stream's side of an RTO expiry (WindowOwner): the tunnel
// remembers the backed-off timeout so new streams over it start from
// reality, not from scratch, and repeated expiry stops trusting its
// remembered hop addresses.
func (s *Stream) Backoff(rto simnet.Time, expiries int) {
	if s.tun != nil {
		s.tun.storeRTO(rto)
		if expiries == hintInvalidateAfter {
			s.eng.invalidateTunnelHints(s.tun)
		}
	}
}

// GiveUp fails the stream when a segment exhausts its retransmit budget
// (WindowOwner).
func (s *Stream) GiveUp(seq uint64, tries int) {
	s.fail(fmt.Sprintf("segment %d: retransmit budget exhausted after %d tries", seq, tries))
}

// handleAck applies one cumulative+SACK acknowledgment.
func (s *Stream) handleAck(cum uint64, ranges []wire.AckRange) {
	if !s.ack(cum, ranges) {
		return
	}
	if s.sndUna > s.finSeq {
		s.complete()
		return
	}
	s.fill()
}

// complete finishes a fully acknowledged stream.
func (s *Stream) complete() {
	s.done = true
	s.lendRing()
	delete(s.eng.sendStreams, s.id)
	if s.tun != nil && s.SegsRetx == 0 {
		// A clean run over this tunnel: drop the backoff memory.
		s.tun.storeRTO(0)
	}
	s.report()
}

// fail abandons the stream.
func (s *Stream) fail(why string) {
	if s.failed || s.done {
		return
	}
	s.failed = true
	s.failWhy = why
	s.lendRing()
	delete(s.eng.sendStreams, s.id)
	// The tunnel is presumed dead: drop every hop's remembered address.
	s.eng.invalidateTunnelHints(s.tun)
	s.report()
}

// report hands OnComplete the finished stream's Outcome.
func (s *Stream) report() {
	if s.OnComplete != nil {
		s.OnComplete(Outcome{Flow: s.id, Delivered: s.done, Opened: s.opened, At: s.eng.net.Now(),
			Attempts: 1 + int(s.SegsRetx), FailedAt: s.failWhy})
	}
}

// lendRing gives a finished stream's send ring back to the engine for the
// next stream to open. The window keeps no reference: its pending timer
// and ack stop at done or failed before they would read a slot, and
// HasRoom reads the missing ring as full.
func (s *Stream) lendRing() {
	s.eng.sendRings.put(s.ring)
	s.ring = nil
}

// invalidateTunnelHints drops the remembered address of every hop t rides
// and records the dead ends, so stale hints cannot keep poisoning later
// dispatches — the cleanup a failing stream runs, and a stream on repeated
// RTO expiry runs early. A prefix sub-tunnel drops only its own hops' hints
// from the parent's link. A direct stream has no tunnel.
func (e *NetEngine) invalidateTunnelHints(t *Tunnel) {
	if t == nil {
		return
	}
	for i, h := range t.Hops {
		if a := t.Hint(i); a != simnet.NoAddr {
			e.markStaleHint(h.HopID, a)
			t.dropHint(i)
		}
	}
}

// --- receive side -----------------------------------------------------------

// RecvStream is the receiver side of one windowed stream, created by the
// engine when the first segment arrives and announced through
// NetEngine.OnStream. OnData receives the payload strictly in order,
// exactly once; the slice is valid only during the callback.
type RecvStream struct {
	eng   *NetEngine
	id    uint64
	dest  id.ID
	ackTo simnet.Addr

	// ring is the reorder buffer: the packet of each out-of-order segment,
	// held with the bytes its data aliases until drain delivers it.
	ring   []*packet
	rcvNxt uint64 // next in-order sequence number expected
	maxSeq uint64 // highest seq+1 received (SACK scan bound)

	finSeq uint64
	finSet bool

	segs uint64

	OnData  func(seq uint64, data []byte)
	OnClose func(rs *RecvStream)
}

// ID returns the stream id, shared with the sender.
func (rs *RecvStream) ID() uint64 { return rs.id }

// Dest returns the destination id the stream was addressed to.
func (rs *RecvStream) Dest() id.ID { return rs.dest }

// handleStreamData consumes a kindStream packet at the target id's owner.
func (e *NetEngine) handleStreamData(self simnet.Addr, p *packet) {
	sid := p.flow
	rs := e.recvStreams[sid]
	if rs == nil {
		if rec, ok := e.closedStreams[sid]; ok && !e.DisableAckDedup {
			// Late duplicate of a finished stream: the final ACK may have
			// been lost, so re-ACK — but never re-deliver.
			e.StreamDupSegs++
			e.sendStreamAck(self, sid, rec.ackTo, rec.cum)
			e.putPacket(p)
			return
		}
		rs = carveOne(&e.recvChunk)
		*rs = RecvStream{eng: e, id: sid, dest: p.target, ackTo: p.ackTo}
		e.recvStreams[sid] = rs
		if e.OnStream != nil {
			e.OnStream(rs)
		}
	}
	rs.accept(self, p)
}

// accept runs the receive-side protocol for one arriving segment. It takes
// p over: the packet is delivered and recycled, recycled as a duplicate or
// a drop, or kept in the reorder ring.
func (rs *RecvStream) accept(self simnet.Addr, p *packet) {
	e := rs.eng
	seq := p.seq
	if e.StreamReorderBypass {
		// Sabotaged receiver: hand segments over in arrival order with no
		// reorder buffer and no dedup. Exists only so the simulation
		// checker can prove the in-order invariant catches it.
		rs.deliverSeg(p)
		if seq+1 > rs.rcvNxt {
			rs.rcvNxt = seq + 1
		}
		if rs.finSet && rs.rcvNxt > rs.finSeq {
			rs.close(self)
			return
		}
		rs.sendAck(self)
		return
	}
	switch {
	case seq < rs.rcvNxt:
		e.StreamDupSegs++
		e.putPacket(p)
	case seq == rs.rcvNxt:
		rs.deliverSeg(p)
		rs.rcvNxt++
		if seq+1 > rs.maxSeq {
			rs.maxSeq = seq + 1
		}
		rs.drain()
	default:
		rs.buffer(p)
	}
	if rs.finSet && rs.rcvNxt > rs.finSeq {
		rs.close(self)
		return
	}
	rs.sendAck(self)
}

// deliverSeg hands one segment to the application, then recycles its
// packet: the data is valid only during OnData.
func (rs *RecvStream) deliverSeg(p *packet) {
	rs.segs++
	if p.fin {
		rs.finSet = true
		rs.finSeq = p.seq
	}
	if rs.OnData != nil && len(p.data) > 0 {
		rs.OnData(p.seq, p.data)
	}
	rs.eng.putPacket(p)
}

// drain delivers buffered segments that became in-order.
func (rs *RecvStream) drain() {
	for len(rs.ring) > 0 {
		sl := &rs.ring[rs.rcvNxt%uint64(len(rs.ring))]
		p := *sl
		if p == nil || p.seq != rs.rcvNxt {
			return
		}
		*sl = nil
		rs.deliverSeg(p)
		rs.rcvNxt++
	}
}

// buffer keeps an out-of-order segment's packet in the reorder ring,
// growing it up to recvWindowCap, or recycles the packet when the segment
// is dropped.
func (rs *RecvStream) buffer(p *packet) {
	span := p.seq - rs.rcvNxt + 1
	if span > recvWindowCap {
		// Too far ahead: drop, the sender's window will bring it back.
		rs.eng.StreamSegsLost++
		rs.eng.putPacket(p)
		return
	}
	if uint64(len(rs.ring)) < span {
		rs.growRing(span)
	}
	sl := &rs.ring[p.seq%uint64(len(rs.ring))]
	if *sl != nil {
		// Same seq twice out of order; distinct seqs cannot collide
		// because the ring always spans the full receive window.
		rs.eng.StreamDupSegs++
		rs.eng.putPacket(p)
		return
	}
	*sl = p
	if p.seq+1 > rs.maxSeq {
		rs.maxSeq = p.seq + 1
	}
}

// growRing doubles the reorder ring until it spans at least minSpan,
// re-placing buffered segments at their new positions, and lends the old
// ring back to the engine. Rings start small and grow on demand so a
// million mostly-in-order streams pay nothing.
func (rs *RecvStream) growRing(minSpan uint64) {
	size := uint64(8)
	for size < minSpan {
		size *= 2
	}
	next := rs.eng.recvRings.take(int(size))
	for _, p := range rs.ring {
		if p != nil {
			next[p.seq%size] = p
		}
	}
	if rs.ring != nil {
		rs.eng.recvRings.put(rs.ring)
	}
	rs.ring = next
}

// sendAck transmits a cumulative+SACK acknowledgment to the sender.
func (rs *RecvStream) sendAck(self simnet.Addr) {
	e := rs.eng
	p := e.getPacket()
	p.kind = kindStreamAck
	p.flow = rs.id
	p.cum = rs.rcvNxt
	// Collect the buffered runs above the cumulative point, nearest
	// first, bounded by the frame's range capacity.
	if rs.maxSeq > rs.rcvNxt && len(rs.ring) > 0 {
		n := uint64(len(rs.ring))
		open := false
		var cur wire.AckRange
		for seq := rs.rcvNxt; seq < rs.maxSeq; seq++ {
			if q := rs.ring[seq%n]; q != nil && q.seq == seq {
				if open && cur.End == seq {
					cur.End++
					continue
				}
				if open {
					if p.nranges == wire.MaxAckRanges {
						break
					}
					p.ranges[p.nranges] = cur
					p.nranges++
				}
				cur = wire.AckRange{Start: seq, End: seq + 1}
				open = true
			}
		}
		if open && p.nranges < wire.MaxAckRanges {
			p.ranges[p.nranges] = cur
			p.nranges++
		}
	}
	e.StreamAcksSent++
	e.send(self, rs.ackTo, p)
}

// sendStreamAck emits a bare cumulative ACK (closed-stream re-ACK path).
func (e *NetEngine) sendStreamAck(self simnet.Addr, sid uint64, to simnet.Addr, cum uint64) {
	p := e.getPacket()
	p.kind = kindStreamAck
	p.flow = sid
	p.cum = cum
	e.StreamAcksSent++
	e.send(self, to, p)
}

// close finishes the incoming stream: the FIN arrived in order.
func (rs *RecvStream) close(self simnet.Addr) {
	if rs.ring != nil {
		rs.eng.recvRings.put(rs.ring)
		rs.ring = nil
	}
	delete(rs.eng.recvStreams, rs.id)
	rs.eng.closedStreams[rs.id] = closedStreamRec{ackTo: rs.ackTo, cum: rs.rcvNxt}
	rs.sendAck(self)
	if rs.OnClose != nil {
		rs.OnClose(rs)
	}
}

// handleStreamAck applies an arriving acknowledgment at the sender.
func (e *NetEngine) handleStreamAck(p *packet) {
	if s, ok := e.sendStreams[p.flow]; ok {
		s.handleAck(p.cum, p.ranges[:p.nranges])
	}
	e.putPacket(p)
}

// --- freelists --------------------------------------------------------------

// streamChunk is how many Stream or RecvStream structs the engine
// allocates at once.
const streamChunk = 32

// carveOne cuts the first element off *chunk, refilling it streamChunk
// elements at a time. What it returns is never handed back: a finished
// stream's struct stays its opener's to read.
func carveOne[T any](chunk *[]T) *T {
	if len(*chunk) == 0 {
		*chunk = make([]T, streamChunk)
	}
	x := &(*chunk)[0]
	*chunk = (*chunk)[1:]
	return x
}

// ringPool lends rings, keyed by length: a finished stream puts its ring
// back cleared and the next stream of that size takes it, so the pool
// never holds more rings than streams were ever open at once, rounded up
// to the 16 rings a take cuts from one block when it finds none.
type ringPool[T any] map[int][][]T

// take returns a zeroed ring of length n.
func (p ringPool[T]) take(n int) []T {
	free := p[n]
	if len(free) == 0 {
		block := make([]T, 16*n)
		free = slices.Grow(free, 16)
		for i := range 16 {
			free = append(free, block[i*n:(i+1)*n:(i+1)*n])
		}
	}
	p[n] = free[:len(free)-1]
	return free[len(free)-1]
}

// put clears r and keeps it for the next take of its length.
func (p ringPool[T]) put(r []T) {
	clear(r)
	p[len(r)] = append(p[len(r)], r)
}

// pktChunk is how many packets the freelist grows by when it runs dry.
const pktChunk = 64

// arenaBlock is the size of the blocks carve cuts storage from.
const arenaBlock = 64 << 10

// getPacket takes a packet from the freelist, which grows pktChunk packets
// at a time. The event loop is single-threaded, so a plain slice suffices;
// steady-state stream traffic allocates no packets.
func (e *NetEngine) getPacket() *packet {
	if len(e.pktFree) == 0 {
		chunk := make([]packet, pktChunk)
		for i := range chunk {
			e.pktFree = append(e.pktFree, &chunk[i])
		}
	}
	n := len(e.pktFree) - 1
	p := e.pktFree[n]
	e.pktFree = e.pktFree[:n]
	return p
}

// carve returns n bytes of fresh storage cut from the engine's arena, with
// its capacity limited to n so no append can reach a neighbour. Carves are
// never handed back: they serve a packet's onion, which the packet freelist
// keeps for the engine's lifetime. A request too big to share a block gets
// storage of its own.
func (e *NetEngine) carve(n int) []byte {
	if n > arenaBlock/4 {
		return make([]byte, n)
	}
	if len(e.arena) < n {
		e.arena = make([]byte, arenaBlock)
	}
	b := e.arena[:n:n]
	e.arena = e.arena[n:]
	return b
}

// putPacket recycles a packet nothing reads any more, keeping its onion
// storage.
func (e *NetEngine) putPacket(p *packet) {
	*p = packet{onion: p.onion}
	e.pktFree = append(e.pktFree, p)
}
