// Package tcptransport implements the transport seam over real TCP
// connections between OS processes.
//
// Where the simulator models a link, this package opens one: every
// message is encoded by an application-supplied Codec, framed with
// internal/wire's length-prefixed magic/version header, and written to a
// per-peer TCP connection that is dialed on first use and reused for the
// peer's lifetime. Addresses stay the seam's small dense integers; a peer
// table maps each to a host:port, fed by the bulletin board
// (internal/board) in a deployment.
//
// Concurrency model. The transport preserves the seam's contract that
// engine callbacks never run concurrently: every message delivery and
// Schedule callback runs holding one transport-wide dispatch lock. A frame
// read off a socket is decoded and handed to its handler right there, on
// the goroutine that read it — one reader per accepted connection, each
// with a Decoder of its own — so an inbound message crosses no queue and
// no goroutine. The dispatch goroutine (the "loop") runs only what has no
// goroutine of its own: timers and deliveries to co-hosted addresses. One
// writer per dialed peer keeps a slow peer from stalling a handler; a full
// outbound queue, or a full dispatch queue, drops messages instead, which
// is exactly the unreliable-send semantics the seam promises and the
// layers above already recover from.
//
// Dialing goes through the Dialer seam: the default is a net.Dialer,
// every attempt is bounded by dialTimeout, and tests (or an onion-routed
// deployment wrapping connections in another transport) inject their own
// — the same wrapper-with-transparent-fallback shape as a TorDialer
// around a node dialer.
//
// Trust model. The transport assumes it runs on a trusted network
// segment (localhost testbeds, a closed lab LAN): frames carry their
// source address in cleartext, inbound connections are not
// authenticated, and nothing is encrypted at this layer. See DESIGN.md
// §14 ("Trust model") for what that does and does not cost, and the
// Dialer seam for where a hardened deployment slots in an authenticated
// channel.
package tcptransport

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tap/internal/obs"
	"tap/internal/transport"
	"tap/internal/wire"
)

// Codec translates between engine messages and frame payloads.
//
// AppendEncode appends msg's encoding to dst and returns the frame kind
// and the extended slice. dst is the frame under construction — header
// and address prefix already laid out — so an implementation appends and
// never touches dst[:len(dst)].
//
// NewDecoder returns a Decoder for one stream of frames: each inbound
// connection's reader makes one, and a co-hosted Send makes a fresh one for
// its one message.
type Codec interface {
	AppendEncode(dst []byte, msg transport.Message) (kind byte, out []byte, err error)
	NewDecoder() Decoder
}

// Decoder reverses AppendEncode, and lends rather than copies — the
// message as well as its bytes. Decode may alias payload, and what it
// returns is valid until the same decoder's next call, so a decoder may
// reuse one message struct per kind. payload is a window into the
// connection's read buffer — the bytes behind it are the next frame, and
// the next read overwrites it — and the reader hands the decoded message to
// its handler before it reads or decodes on. So a delivered message, struct
// and bytes, belongs to the handler until Deliver returns; what the handler
// keeps past that, it copies.
type Decoder interface {
	Decode(kind byte, payload []byte) (transport.Message, error)
}

const (
	// addrPrefixSize is the [src:8][dst:8] prefix every frame payload
	// opens with, ahead of the codec's bytes.
	addrPrefixSize = 16
	// codecSlack is added to msg.SizeBytes() when sizing a frame buffer:
	// room for what a codec writes beyond the message's modelled size
	// (length prefixes, hints), so encoding does not regrow the buffer. A
	// capacity hint only — a codec that needs more still gets it.
	codecSlack = 32
	// readBufSize is each inbound connection's read buffer. It never
	// grows: a frame that does not fit is read into a one-off allocation
	// of its validated length, so a peer cannot pin more than this per
	// connection beyond the frame in flight.
	readBufSize = 64 << 10
	// writeBatchSize is where a writer stops gathering queued frames into
	// one Write: what the peer's single Read can take. It also bounds how
	// much of a queue of large frames is copied before the socket sees any.
	writeBatchSize = readBufSize
	// MaxKeptBuffer bounds a buffer kept for reuse past the message it
	// carried (a peer's frame buffers and batch, a node's scratch): one that
	// grew past it is dropped, so an oversize message cannot pin its size.
	MaxKeptBuffer = 2 * writeBatchSize
	// dialTimeout bounds each connection attempt, whatever the Dialer.
	dialTimeout = 3 * time.Second
	// sendQueueDepth is the per-peer outbound queue depth; a full queue
	// drops (unreliable-send semantics).
	sendQueueDepth = 256
	// freeBufDepth is how many written frames' buffers a peer keeps for its
	// next frames: a stream's window (procnode.streamWindow), which is what
	// travels to one peer together. With the retention bound that is at
	// most 2 MiB a peer, and only a peer that was sent frames that large.
	freeBufDepth = 16
)

// Dialer is the connection-establishment seam. The zero Config uses a
// net.Dialer; tests inject failing or in-memory dialers, and a hardened
// deployment can wrap connections in another transport without this
// package knowing.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Config tunes a Transport. The zero value of every field has a usable
// default.
type Config struct {
	// Codec is required: it defines the message set on the wire.
	Codec Codec
	// Dialer overrides connection establishment. Default: net.Dialer.
	Dialer Dialer
	// Logf, when non-nil, receives diagnostic messages (dial failures,
	// decode errors). Default: silent.
	Logf func(format string, args ...any)
	// Registry, when non-nil, receives the transport's metrics
	// (tap_transport_*; see DESIGN.md §15). One transport per registry:
	// the metric names are not instance-qualified. When nil the
	// transport keeps a private registry so Stats() still reports.
	Registry *obs.Registry
}

// metrics holds the transport's instruments. All counting flows through
// obs atomics — there is no separate stats bookkeeping — so a scrape and
// the Stats() accessor can never disagree.
type metrics struct {
	sent      *obs.Counter
	delivered *obs.Counter

	// Drops by cause; the Stats() accessor reports their sum.
	dropUnknownPeer *obs.Counter // destination not in the peer table (or transport closed)
	dropQueueFull   *obs.Counter // a full queue: a peer's outbound one, or the loop's for co-hosted sends
	dropConnDown    *obs.Counter // peer torn down: late sends and drained queues
	dropNoHandler   *obs.Counter // delivery with no attached handler
	dropEncode      *obs.Counter // codec refused the message

	dials       *obs.Counter
	dialFails   *obs.Counter
	dialSeconds *obs.Histogram

	framesOut *obs.Counter
	framesIn  *obs.Counter
	bytesOut  *obs.Counter
	bytesIn   *obs.Counter

	decodeErrs *obs.Counter
	runtFrames *obs.Counter

	connsIn       *obs.Gauge
	connsOut      *obs.Gauge
	connOpensIn   *obs.Counter
	connOpensOut  *obs.Counter
	connClosesIn  *obs.Counter
	connClosesOut *obs.Counter

	queueDepth *obs.Gauge
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	dirIn := obs.Label{Name: "dir", Value: "in"}
	dirOut := obs.Label{Name: "dir", Value: "out"}
	reason := func(v string) obs.Label { return obs.Label{Name: "reason", Value: v} }
	const drop = "tap_transport_dropped_total"
	const dropHelp = "Messages lost by the transport, by cause."
	frames := "tap_transport_frames_total"
	framesHelp := "Frames crossing a socket, by direction."
	bytes := "tap_transport_bytes_total"
	bytesHelp := "Framed bytes crossing a socket, by direction."
	connsActive := "tap_transport_conns_active"
	connsActiveHelp := "Open TCP connections, by direction."
	connsOpened := "tap_transport_conns_opened_total"
	connsOpenedHelp := "TCP connections opened, by direction."
	connsClosed := "tap_transport_conns_closed_total"
	connsClosedHelp := "TCP connections closed, by direction."
	return &metrics{
		sent:      reg.Counter("tap_transport_sent_total", "Messages handed to Send."),
		delivered: reg.Counter("tap_transport_delivered_total", "Messages handed to a local handler."),

		dropUnknownPeer: reg.Counter(drop, dropHelp, reason("unknown_peer")),
		dropQueueFull:   reg.Counter(drop, dropHelp, reason("queue_full")),
		dropConnDown:    reg.Counter(drop, dropHelp, reason("conn_down")),
		dropNoHandler:   reg.Counter(drop, dropHelp, reason("no_handler")),
		dropEncode:      reg.Counter(drop, dropHelp, reason("encode")),

		dials:       reg.Counter("tap_transport_dials_total", "Connection attempts."),
		dialFails:   reg.Counter("tap_transport_dial_failures_total", "Failed connection attempts."),
		dialSeconds: reg.Histogram("tap_transport_dial_seconds", "Dial latency of successful connection attempts.", nil),

		framesOut: reg.Counter(frames, framesHelp, dirOut),
		framesIn:  reg.Counter(frames, framesHelp, dirIn),
		bytesOut:  reg.Counter(bytes, bytesHelp, dirOut),
		bytesIn:   reg.Counter(bytes, bytesHelp, dirIn),

		decodeErrs: reg.Counter("tap_transport_decode_errors_total", "Inbound frames the codec rejected."),
		runtFrames: reg.Counter("tap_transport_runt_frames_total", "Inbound frames too short to carry addresses."),

		connsIn:       reg.Gauge(connsActive, connsActiveHelp, dirIn),
		connsOut:      reg.Gauge(connsActive, connsActiveHelp, dirOut),
		connOpensIn:   reg.Counter(connsOpened, connsOpenedHelp, dirIn),
		connOpensOut:  reg.Counter(connsOpened, connsOpenedHelp, dirOut),
		connClosesIn:  reg.Counter(connsClosed, connsClosedHelp, dirIn),
		connClosesOut: reg.Counter(connsClosed, connsClosedHelp, dirOut),

		queueDepth: reg.Gauge("tap_transport_queue_depth", "Frames parked in per-peer outbound queues."),
	}
}

// StatsSnapshot is a point-in-time copy of the transport's core
// counters, kept for callers predating the metrics registry. Dropped
// aggregates every drop cause.
type StatsSnapshot struct {
	Sent      uint64 // messages handed to Send
	Delivered uint64 // messages handed to a local handler
	Dropped   uint64 // messages lost: unknown peer, full queue, dead conn, no handler, encode
	Dials     uint64 // connection attempts
	DialFails uint64 // failed connection attempts
	BytesSent uint64 // framed bytes written
}

// Stats reads the current counter values. Unlike the former exported
// Stats field there is no struct to read half-updated: every field is
// loaded from the same atomics the metrics endpoint scrapes.
func (t *Transport) Stats() StatsSnapshot {
	m := t.m
	return StatsSnapshot{
		Sent:      m.sent.Load(),
		Delivered: m.delivered.Load(),
		Dropped: m.dropUnknownPeer.Load() + m.dropQueueFull.Load() +
			m.dropConnDown.Load() + m.dropNoHandler.Load() + m.dropEncode.Load(),
		Dials:     m.dials.Load(),
		DialFails: m.dialFails.Load(),
		BytesSent: m.bytesOut.Load(),
	}
}

// peer is one outbound neighbor: its queue, its writer goroutine, the
// quit channel that tears both down, and the frame buffers its writer is
// done with.
//
// p.out is NEVER closed. Send enqueues without holding the transport
// lock, so a close racing an enqueue would panic the process; teardown
// instead closes p.quit, which the writer and every enqueue select on,
// turning late sends into ordinary drops.
type peer struct {
	hostport string
	out      chan []byte
	free     chan []byte // buffers of frames written, for frame to encode the next into
	quit     chan struct{}
	stop     sync.Once
}

// recycle hands a frame's buffer back once nothing will read it again: its
// bytes are on the socket or copied into the writer's batch. A full free
// list drops it, and an oversize frame's buffer is not kept — the rule the
// writer's batch follows — so a peer pins a bounded amount.
func (p *peer) recycle(buf []byte) {
	if cap(buf) > MaxKeptBuffer {
		return
	}
	select {
	case p.free <- buf:
	default:
	}
}

// shutdown signals the peer's writer to exit and pending or future
// enqueues to drop. Idempotent and safe from any goroutine.
func (p *peer) shutdown() { p.stop.Do(func() { close(p.quit) }) }

// Transport carries messages over TCP. Construct with New, then Listen
// (to accept inbound traffic) and SetPeer (to name outbound neighbors).
type Transport struct {
	cfg   Config
	start time.Time
	m     *metrics

	events   chan event
	dispatch sync.Mutex // held by every delivery and Schedule callback
	quit     chan struct{}
	wg       sync.WaitGroup

	mu       sync.Mutex
	handlers map[transport.Addr]transport.Handler
	peers    map[transport.Addr]string
	conns    map[transport.Addr]*peer
	down     map[transport.Addr]bool
	ln       net.Listener
	closed   bool
}

// New returns a transport ready for Listen/SetPeer. Call Close when done.
func New(cfg Config) *Transport {
	if cfg.Codec == nil {
		panic("tcptransport: Config.Codec is required")
	}
	if cfg.Dialer == nil {
		cfg.Dialer = &net.Dialer{}
	}
	t := &Transport{
		cfg:      cfg,
		start:    time.Now(),
		m:        newMetrics(cfg.Registry),
		events:   make(chan event, 1024), // a handler's burst of co-hosted sends, before they drop
		quit:     make(chan struct{}),
		handlers: make(map[transport.Addr]transport.Handler),
		peers:    make(map[transport.Addr]string),
		conns:    make(map[transport.Addr]*peer),
		down:     make(map[transport.Addr]bool),
	}
	t.wg.Add(1)
	go t.loop()
	return t
}

func (t *Transport) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// event is one unit of the dispatch loop's work: a timer's event to fire,
// or — fire nil — a co-hosted message to hand to dst's handler. A delivery
// travels as a value so that it costs the queue no allocation.
type event struct {
	fire     transport.Event
	src, dst transport.Addr
	msg      transport.Message
}

// loop is the dispatch goroutine for what has no goroutine of its own:
// Schedule callbacks and co-hosted deliveries.
func (t *Transport) loop() {
	defer t.wg.Done()
	for {
		select {
		case ev := <-t.events:
			t.run(ev)
		case <-t.quit:
			// Drain whatever is already queued, then stop.
			for {
				select {
				case ev := <-t.events:
					t.run(ev)
				default:
					return
				}
			}
		}
	}
}

// run executes one event — on the loop, or a socket delivery on its
// reader — under the dispatch lock.
func (t *Transport) run(ev event) {
	t.dispatch.Lock()
	defer t.dispatch.Unlock()
	if ev.fire != nil {
		ev.fire.Fire()
		return
	}
	t.mu.Lock()
	h := t.handlers[ev.dst]
	t.mu.Unlock()
	if h == nil {
		t.m.dropNoHandler.Inc()
		return
	}
	t.m.delivered.Inc()
	h.Deliver(ev.src, ev.msg)
}

// enqueue files ev onto the dispatch loop; after Close it is dropped. It
// blocks while the queue is full, so it is for callers holding no lock.
func (t *Transport) enqueue(ev transport.Event) {
	select {
	case t.events <- event{fire: ev}:
	case <-t.quit:
	}
}

// Listen starts accepting inbound connections on hostport (e.g.
// "127.0.0.1:0") and returns the bound address.
func (t *Transport) Listen(hostport string) (string, error) {
	ln, err := net.Listen("tcp", hostport)
	if err != nil {
		return "", fmt.Errorf("tcptransport: listen %s: %w", hostport, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("tcptransport: transport closed")
	}
	t.ln = ln
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (t *Transport) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection and delivers each
// where it lies in the read buffer. The frame payload is [src:8][dst:8]
// [codec payload]. Each Read takes whatever the socket holds — usually
// several frames under load, one syscall for all of them.
//
// The src address is taken from the frame as-is: the transport trusts
// the network segment it runs on and does no per-connection
// authentication (DESIGN.md §14, "Trust model"). A hardened deployment
// binds identity to the connection via the Dialer seam.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	t.m.connsIn.Inc()
	t.m.connOpensIn.Inc()
	defer func() {
		t.m.connsIn.Dec()
		t.m.connClosesIn.Inc()
	}()
	done := make(chan struct{})
	defer close(done)
	go func() {
		// Tear the connection down when the transport closes, so the
		// blocking ReadFrame returns — and exit with the loop, so a
		// connection dying on its own doesn't leak this watcher.
		select {
		case <-t.quit:
			conn.Close()
		case <-done:
		}
	}()
	dec := t.cfg.Codec.NewDecoder()
	buf := make([]byte, readBufSize)
	have := 0 // buf[:have] is received and not yet consumed
	for {
		n, readErr := conn.Read(buf[have:])
		have += n
		// Walk every complete frame in place. ParseFrame validates each
		// header — magic, version, length guard — before its payload is
		// looked at, and nothing here allocates.
		rest := buf[:have]
		for {
			kind, payload, tail, err := wire.ParseFrame(rest)
			if err == wire.ErrShort {
				break
			}
			if err != nil || !t.receive(conn, dec, kind, payload) {
				return
			}
			rest = tail
		}
		if readErr != nil {
			return
		}
		// rest is the head of a frame still arriving. One that can never
		// fit the buffer is finished in an allocation of exactly its
		// validated length; anything else moves to the front.
		if size, err := wire.FrameSize(rest); err == nil && size > len(buf) {
			big := make([]byte, size)
			got := copy(big, rest)
			if _, err := io.ReadFull(conn, big[got:]); err != nil {
				return
			}
			kind, payload, _, err := wire.ParseFrame(big)
			if err != nil || !t.receive(conn, dec, kind, payload) {
				return
			}
			rest = nil
		}
		have = copy(buf, rest)
	}
}

// receive accounts for one inbound frame and delivers its message, decoded
// by dec, on the calling reader; false means the connection is not worth
// reading further. payload is only valid until receive returns.
func (t *Transport) receive(conn net.Conn, dec Decoder, kind byte, payload []byte) bool {
	t.m.framesIn.Inc()
	t.m.bytesIn.Add(uint64(wire.FrameHeaderSize + len(payload)))
	if len(payload) < addrPrefixSize {
		t.m.runtFrames.Inc()
		t.logf("tcptransport: runt frame (%d bytes) from %s", len(payload), conn.RemoteAddr())
		return false
	}
	src := transport.Addr(int64(binary.BigEndian.Uint64(payload[0:8])))
	dst := transport.Addr(int64(binary.BigEndian.Uint64(payload[8:16])))
	msg, err := dec.Decode(kind, payload[addrPrefixSize:])
	if err != nil {
		t.m.decodeErrs.Inc()
		t.logf("tcptransport: decode kind %d from %s: %v", kind, conn.RemoteAddr(), err)
		return true
	}
	t.run(event{src: src, dst: dst, msg: msg})
	return true
}

// --- transport.Transport ----------------------------------------------------

// Now returns the time since the transport's construction — the wall
// clock rebased to a process-local epoch, mirroring the simulator's
// "duration since start" convention.
func (t *Transport) Now() transport.Time { return time.Since(t.start) }

// Schedule fires ev after delay on the dispatch loop, under the dispatch
// lock: serialized with message deliveries.
func (t *Transport) Schedule(delay transport.Time, ev transport.Event) {
	if delay < 0 {
		delay = 0
	}
	time.AfterFunc(delay, func() { t.enqueue(ev) })
}

// Send encodes and transmits msg. Local destinations (an attached
// handler in this process) short-circuit through the dispatch loop
// without touching a socket, so one process can host several addresses —
// the integration tests and single-binary demos rely on that. A local
// handler is handed a decode of msg from a fresh buffer, as a remote one
// is a decode from its read buffer: the same lending rule, and no byte the
// sender still holds (DESIGN §14).
func (t *Transport) Send(src, dst transport.Addr, msg transport.Message) {
	t.m.sent.Inc()
	t.mu.Lock()
	_, local := t.handlers[dst]
	t.mu.Unlock()
	if local {
		// A decode of the frame a socket would carry, in a buffer and by a
		// decoder of its own: it waits in the events queue past other
		// decodes. frame validated the header ParseFrame reads back.
		frame, err := t.frame(nil, src, dst, msg)
		if err == nil {
			kind, payload, _, _ := wire.ParseFrame(frame)
			msg, err = t.cfg.Codec.NewDecoder().Decode(kind, payload[addrPrefixSize:])
		}
		if err != nil {
			t.logf("tcptransport: encode to local %d: %v", dst, err)
			t.m.dropEncode.Inc()
			return
		}
		select {
		case t.events <- event{src: src, dst: dst, msg: msg}:
		default:
			// The sender may be a handler, holding the dispatch lock the loop
			// needs to drain this queue: a full queue drops, as a peer's does.
			t.m.dropQueueFull.Inc()
		}
		return
	}
	p := t.peerFor(dst)
	if p == nil {
		t.m.dropUnknownPeer.Inc()
		return
	}
	select {
	case <-p.quit:
		// Peer torn down between peerFor and the enqueue (endpoint
		// change, RemovePeer, Close). Drop; the next Send re-resolves.
		t.m.dropConnDown.Inc()
		return
	default:
	}
	// Only a message with somewhere to go is worth encoding.
	frame, err := t.frame(p.free, src, dst, msg)
	if err != nil {
		t.logf("tcptransport: encode to %d: %v", dst, err)
		t.m.dropEncode.Inc()
		return
	}
	select {
	case p.out <- frame:
		t.m.queueDepth.Inc()
		select {
		case <-p.quit:
			// Teardown won the race between the quit pre-check and the
			// enqueue: the writer is gone and dropPeer's drain may already
			// have run, so this frame could sit in the dead channel
			// forever. Drain it ourselves — discardQueued is safe to run
			// concurrently with the teardown's own call, each frame is
			// received (and counted) exactly once.
			t.discardQueued(p)
		default:
		}
	default:
		// Full queue: the peer is slower than we produce. Drop, as an
		// overloaded link would.
		t.m.dropQueueFull.Inc()
		p.recycle(frame)
	}
}

// frame builds msg's whole frame — header, [src][dst] prefix, codec
// bytes — in one buffer: one from free, a peer's writer is done with, if
// that is large enough, else allocated at the message's size (a nil free
// always allocates); encoded into directly, the header patched in last
// when the length is known. A peer's frame belongs to its queue from here
// on, and goes back to free once writeLoop has written it or copied it
// into its batch.
func (t *Transport) frame(free chan []byte, src, dst transport.Addr, msg transport.Message) ([]byte, error) {
	const prefix = wire.FrameHeaderSize + addrPrefixSize
	size := msg.SizeBytes()
	if size < 0 || size > wire.MaxFramePayload {
		// SizeBytes counts modelled padding a peer can set; refuse before
		// it sizes an allocation.
		return nil, fmt.Errorf("%w: message of %d bytes", wire.ErrFrameSize, size)
	}
	var buf []byte
	select {
	case buf = <-free:
	default:
	}
	if need := prefix + size + codecSlack; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:prefix]
	binary.BigEndian.PutUint64(buf[wire.FrameHeaderSize:], uint64(int64(src)))
	binary.BigEndian.PutUint64(buf[wire.FrameHeaderSize+8:], uint64(int64(dst)))
	kind, buf, err := t.cfg.Codec.AppendEncode(buf, msg)
	if err != nil {
		return nil, err
	}
	if err := wire.PutFrameHeader(buf, kind, len(buf)-wire.FrameHeaderSize); err != nil {
		return nil, err
	}
	return buf, nil
}

// peerFor returns the live peer record for dst, creating its queue and
// writer goroutine on first use (the connection itself is dialed by the
// writer). Unknown destinations return nil.
func (t *Transport) peerFor(dst transport.Addr) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if p := t.conns[dst]; p != nil {
		return p
	}
	hostport, ok := t.peers[dst]
	if !ok {
		return nil
	}
	p := &peer{
		hostport: hostport,
		out:      make(chan []byte, sendQueueDepth),
		free:     make(chan []byte, freeBufDepth),
		quit:     make(chan struct{}),
	}
	t.conns[dst] = p
	t.wg.Add(1)
	go t.writeLoop(dst, p)
	return p
}

// writeLoop owns one peer's connection: dial once (per connection
// lifetime), then drain the queue onto it, everything queued in one Write
// — frames that travel together (a stream's window, relayed hop by hop)
// cross each socket in one syscall, and readLoop walks them out of one
// Read. Any error tears the peer down; the next Send re-creates it, so
// reconnection is lazy and the engine above sees only message loss in
// between.
func (t *Transport) writeLoop(dst transport.Addr, p *peer) {
	defer t.wg.Done()
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	t.m.dials.Inc()
	dialStart := time.Now()
	conn, err := t.cfg.Dialer.DialContext(ctx, "tcp", p.hostport)
	cancel()
	if err != nil {
		t.m.dialFails.Inc()
		t.logf("tcptransport: dial %d (%s): %v", dst, p.hostport, err)
		t.dropPeer(dst, p)
		return
	}
	t.m.dialSeconds.Observe(time.Since(dialStart).Seconds())
	t.m.connsOut.Inc()
	t.m.connOpensOut.Inc()
	defer func() {
		t.m.connsOut.Dec()
		t.m.connClosesOut.Inc()
	}()
	defer conn.Close()
	t.markUp(dst)
	done := make(chan struct{})
	defer close(done)
	go func() {
		// Unblock a stuck Write when the transport closes or the peer is
		// torn down; exit with the loop otherwise, so connection churn
		// doesn't accumulate watchers.
		select {
		case <-t.quit:
			conn.Close()
		case <-p.quit:
			conn.Close()
		case <-done:
		}
	}()
	var batch []byte // frames gathered for one Write; this goroutine's alone
	for {
		select {
		case <-p.quit:
			return
		case frame := <-p.out:
			// Write what is queued, not one frame. A frame alone in the
			// queue goes out from its own buffer: not copied, not delayed.
			buf, frames := frame, uint64(1)
		gather:
			for len(buf) < writeBatchSize {
				select {
				case next := <-p.out:
					if frames == 1 {
						batch = append(batch[:0], frame...)
						p.recycle(frame)
					}
					batch = append(batch, next...)
					p.recycle(next)
					buf = batch
					frames++
				default:
					break gather
				}
			}
			t.m.queueDepth.Add(-int64(frames))
			// One plain Write, not net.Buffers: writev lacks the race
			// detector's release/acquire edge that tests synchronising
			// through a socket rely on.
			_, err := conn.Write(buf)
			if frames == 1 {
				p.recycle(frame)
			}
			if cap(batch) > MaxKeptBuffer {
				batch = nil // an oversize frame passed through: do not pin its size per peer
			}
			if err != nil {
				t.m.dropConnDown.Add(frames)
				t.logf("tcptransport: write %d (%s): %v", dst, p.hostport, err)
				t.dropPeer(dst, p)
				return
			}
			t.m.framesOut.Add(frames)
			t.m.bytesOut.Add(uint64(len(buf)))
		}
	}
}

// dropPeer tears a dead peer down, counts its queued frames as drops,
// and — if it was still the live record for dst — marks the address
// down for Reachable. A stale peer (already replaced by SetPeer) is
// drained without touching the fresh endpoint's state.
func (t *Transport) dropPeer(dst transport.Addr, p *peer) {
	p.shutdown()
	t.mu.Lock()
	if t.conns[dst] == p {
		delete(t.conns, dst)
		t.down[dst] = true
	}
	t.mu.Unlock()
	t.discardQueued(p)
}

// discardQueued drains whatever was queued behind a dead connection,
// counting each frame as a drop.
func (t *Transport) discardQueued(p *peer) {
	for {
		select {
		case <-p.out:
			t.m.queueDepth.Dec()
			t.m.dropConnDown.Inc()
		default:
			return
		}
	}
}

// markUp clears the down flag after a successful dial.
func (t *Transport) markUp(dst transport.Addr) {
	t.mu.Lock()
	delete(t.down, dst)
	t.mu.Unlock()
}

// Attach binds h to addr. Attaching over a live handler is a programming
// error, matching the simulator.
func (t *Transport) Attach(addr transport.Addr, h transport.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.handlers[addr] != nil {
		panic(fmt.Sprintf("tcptransport: address %d already attached", addr))
	}
	t.handlers[addr] = h
}

// Detach removes the handler at addr.
func (t *Transport) Detach(addr transport.Addr) {
	t.mu.Lock()
	delete(t.handlers, addr)
	t.mu.Unlock()
}

// Attached reports whether addr has a live local handler.
func (t *Transport) Attached(addr transport.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handlers[addr] != nil
}

// Reachable reports whether addr is worth dialing: it is local, or in the
// peer table and not known-dead since its last failure. SetPeer clears
// the dead mark, so a refreshed peer-set entry restores optimism.
func (t *Transport) Reachable(addr transport.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.handlers[addr] != nil {
		return true
	}
	_, known := t.peers[addr]
	return known && !t.down[addr]
}

// Grow is a no-op: the TCP address space is the peer table.
func (t *Transport) Grow(n int) {}

// --- peer table -------------------------------------------------------------

// SetPeer maps addr to a host:port, replacing any previous mapping and
// clearing a down mark. A changed mapping tears down the old connection
// so the next send dials the new endpoint.
func (t *Transport) SetPeer(addr transport.Addr, hostport string) {
	t.mu.Lock()
	prev, had := t.peers[addr]
	t.peers[addr] = hostport
	delete(t.down, addr)
	var stale *peer
	if had && prev != hostport {
		if p := t.conns[addr]; p != nil {
			stale = p
			delete(t.conns, addr)
		}
	}
	t.mu.Unlock()
	if stale != nil {
		stale.shutdown()
		t.discardQueued(stale)
	}
}

// RemovePeer forgets addr. In-flight queue contents are dropped.
func (t *Transport) RemovePeer(addr transport.Addr) {
	t.mu.Lock()
	delete(t.peers, addr)
	delete(t.down, addr)
	p := t.conns[addr]
	delete(t.conns, addr)
	t.mu.Unlock()
	if p != nil {
		p.shutdown()
		t.discardQueued(p)
	}
}

// Close stops the listener, every reader, the dispatch loop and every
// peer writer, and waits for them to exit.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	ln := t.ln
	conns := t.conns
	t.conns = make(map[transport.Addr]*peer)
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, p := range conns {
		p.shutdown()
	}
	close(t.quit)
	t.wg.Wait()
}

var _ transport.Transport = (*Transport)(nil)
