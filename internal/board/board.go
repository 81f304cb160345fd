// Package board implements the bulletin-board coordinator for the
// real-process deployment mode.
//
// A TAP deployment needs one piece of out-of-band coordination that the
// simulator gets for free: nodes must find each other. The board is that
// piece — a single TCP service that assigns each joining node a small
// dense transport address, records its host:port, and hands every member
// the current peer set. It is a bootstrap oracle, not a router: once
// nodes hold the peer table, all overlay traffic flows node-to-node and
// the board sees none of it.
//
// Liveness is tracked two ways: a member's registration dies with its
// connection (the common, prompt signal), and a heartbeat freshness bound
// (StaleAfter) catches wedged processes whose sockets linger. Members
// that want to survive their control connection's loss simply reconnect
// and re-register.
//
// The protocol is length-prefixed wire frames (internal/wire's framing)
// over one TCP connection per member, strictly request/response except
// for heartbeats, which elicit nothing.
package board

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tap/internal/obs"
	"tap/internal/transport"
	"tap/internal/wire"
)

// Frame kinds of the board protocol.
const (
	kindRegister   = 1 // c→b: {hostport}
	kindRegistered = 2 // b→c: {addr, peer list}
	kindPeers      = 3 // c→b: {}
	kindPeerList   = 4 // b→c: {peer list}
	kindWait       = 5 // c→b: {n}
	kindReady      = 6 // b→c: {peer list}
	kindHeartbeat  = 7 // c→b: {}, no response
	kindError      = 8 // b→c: {message}
)

// encodePeers serializes a peer table as {count, (addr, hostport)*}.
func encodePeers(peers map[transport.Addr]string) []byte {
	w := wire.NewWriter(16 + 32*len(peers))
	w.Uint32(uint32(len(peers)))
	for a, hp := range peers {
		w.Int64(int64(a))
		w.String(hp)
	}
	return w.Bytes()
}

// minPeerEntry is the least one encoded peer occupies: an 8-byte address
// and a one-byte uvarint length.
const minPeerEntry = 9

// decodePeers parses an encodePeers payload. The count comes off the
// socket, so it is held to what the bytes behind it could encode before
// it sizes the map.
func decodePeers(b []byte) (map[transport.Addr]string, error) {
	r := wire.NewReader(b)
	n := r.Uint32()
	if int64(n) > int64(r.Remaining()/minPeerEntry) {
		return nil, fmt.Errorf("board: peer list: count %d exceeds the %d bytes that follow", n, r.Remaining())
	}
	out := make(map[transport.Addr]string, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		a := transport.Addr(r.Int64())
		out[a] = r.String()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("board: peer list: %w", err)
	}
	return out, nil
}

// --- server ------------------------------------------------------------------

// member is one registered node.
type member struct {
	hostport string
	lastSeen time.Time
	conn     net.Conn
}

// waiter is a parked Wait request: woken when the member count reaches
// n, or abandoned when the connection that asked dies first.
type waiter struct {
	n    int
	conn net.Conn      // the asking connection; the cleanup key in serve
	ch   chan []byte   // receives the encoded peer list
	done chan struct{} // closed by serve's cleanup when conn is torn down
}

// Config tunes a Board.
type Config struct {
	// StaleAfter prunes members whose last heartbeat (or registration)
	// is older than this. Zero disables freshness pruning — connection
	// close remains the only death signal.
	StaleAfter time.Duration
	// Logf, when non-nil, receives diagnostics.
	Logf func(format string, args ...any)
	// Registry, when non-nil, receives the board's metrics (tap_board_*;
	// see DESIGN.md §15). One board per registry. Nil disables metrics —
	// every instrument degrades to obs's no-op sink.
	Registry *obs.Registry
}

// metrics holds the board's instruments; all fields are nil (no-ops)
// when Config.Registry is nil.
type metrics struct {
	members       *obs.Gauge   // live registrations
	registrations *obs.Counter // kindRegister frames accepted
	departures    *obs.Counter // registrations dropped with their connection
	heartbeats    *obs.Counter // kindHeartbeat frames received
	prunes        *obs.Counter // members evicted by staleness
	waitersParked *obs.Gauge   // Wait requests parked below quorum
	waitsServed   *obs.Counter // kindReady replies, immediate or woken
	rejects       *obs.Counter // request frames refused on their header
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		members:       reg.Gauge("tap_board_members", "Live member registrations."),
		registrations: reg.Counter("tap_board_registrations_total", "Register requests accepted."),
		departures:    reg.Counter("tap_board_departures_total", "Registrations dropped when their connection died."),
		heartbeats:    reg.Counter("tap_board_heartbeats_total", "Heartbeat frames received."),
		prunes:        reg.Counter("tap_board_prunes_total", "Members evicted for stale heartbeats."),
		waitersParked: reg.Gauge("tap_board_waiters_parked", "Wait requests parked until quorum."),
		waitsServed:   reg.Counter("tap_board_waits_served_total", "Wait requests answered with a peer list."),
		rejects:       reg.Counter("tap_board_rejects_total", "Request frames refused on their header: malformed, or larger than any request."),
	}
}

// Board is the coordinator service. Construct with New, start with
// Listen, stop with Close.
type Board struct {
	cfg Config
	m   *metrics

	mu      sync.Mutex
	next    transport.Addr
	members map[transport.Addr]*member
	waiters []*waiter
	ln      net.Listener
	closed  bool
	wg      sync.WaitGroup
	quit    chan struct{}
}

// New creates an idle board.
func New(cfg Config) *Board {
	return &Board{cfg: cfg, m: newMetrics(cfg.Registry), members: make(map[transport.Addr]*member), quit: make(chan struct{})}
}

func (b *Board) logf(format string, args ...any) {
	if b.cfg.Logf != nil {
		b.cfg.Logf(format, args...)
	}
}

// Listen binds the board to hostport and begins serving; it returns the
// bound address (useful with port 0).
func (b *Board) Listen(hostport string) (string, error) {
	ln, err := net.Listen("tcp", hostport)
	if err != nil {
		return "", fmt.Errorf("board: listen %s: %w", hostport, err)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("board: closed")
	}
	b.ln = ln
	b.mu.Unlock()
	b.wg.Add(1)
	go b.acceptLoop(ln)
	if b.cfg.StaleAfter > 0 {
		b.wg.Add(1)
		go b.pruneLoop()
	}
	return ln.Addr().String(), nil
}

// MemberCount returns the number of live registrations.
func (b *Board) MemberCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.members)
}

func (b *Board) peersLocked() map[transport.Addr]string {
	out := make(map[transport.Addr]string, len(b.members))
	for a, m := range b.members {
		out[a] = m.hostport
	}
	return out
}

// Close stops the listener and every member connection.
func (b *Board) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	ln := b.ln
	for _, m := range b.members {
		if m.conn != nil {
			m.conn.Close()
		}
	}
	b.mu.Unlock()
	close(b.quit)
	if ln != nil {
		ln.Close()
	}
	b.wg.Wait()
}

func (b *Board) acceptLoop(ln net.Listener) {
	defer b.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go b.serve(conn)
	}
}

// pruneLoop evicts members whose heartbeats went stale.
func (b *Board) pruneLoop() {
	defer b.wg.Done()
	tick := time.NewTicker(b.cfg.StaleAfter / 2)
	defer tick.Stop()
	for {
		select {
		case <-b.quit:
			return
		case now := <-tick.C:
			b.mu.Lock()
			for a, m := range b.members {
				if now.Sub(m.lastSeen) > b.cfg.StaleAfter {
					b.logf("board: pruning stale member %d (%s)", a, m.hostport)
					if m.conn != nil {
						m.conn.Close()
					}
					delete(b.members, a)
					b.m.prunes.Inc()
				}
			}
			b.m.members.Set(int64(len(b.members)))
			b.mu.Unlock()
		}
	}
}

// maxRequest bounds a request frame's payload. A request is a host:port or
// a uint32; nothing a member sends comes near it.
const maxRequest = 4096

// errRefused marks a request frame refused on its header alone.
var errRefused = errors.New("board: request refused")

// readRequest reads one request frame into buf, which must hold
// wire.FrameHeaderSize+maxRequest bytes. Connections are unauthenticated,
// so a header claiming more than maxRequest is refused before any of its
// payload is read or a byte allocated for it. The payload aliases buf.
func readRequest(conn io.Reader, buf []byte) (kind byte, payload []byte, err error) {
	if _, err := io.ReadFull(conn, buf[:wire.FrameHeaderSize]); err != nil {
		return 0, nil, err
	}
	size, err := wire.FrameSize(buf[:wire.FrameHeaderSize])
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", errRefused, err)
	}
	if size > len(buf) {
		return 0, nil, fmt.Errorf("%w: %d-byte payload, limit %d", errRefused, size-wire.FrameHeaderSize, maxRequest)
	}
	if _, err := io.ReadFull(conn, buf[wire.FrameHeaderSize:size]); err != nil {
		return 0, nil, err
	}
	kind, payload, _, err = wire.ParseFrame(buf[:size])
	return kind, payload, err
}

// serve handles one member connection until it closes; registrations
// made on it die with it.
func (b *Board) serve(conn net.Conn) {
	defer b.wg.Done()
	defer conn.Close()
	var mine []transport.Addr
	defer func() {
		b.mu.Lock()
		for _, a := range mine {
			if _, ok := b.members[a]; ok {
				delete(b.members, a)
				b.m.departures.Inc()
			}
		}
		b.m.members.Set(int64(len(b.members)))
		// Abandon this connection's parked waiters: their reply would
		// only hit a dead conn, and the entries would otherwise pile up
		// until board Close.
		if len(b.waiters) > 0 {
			keep := b.waiters[:0]
			for _, wt := range b.waiters {
				if wt.conn == conn {
					close(wt.done)
				} else {
					keep = append(keep, wt)
				}
			}
			b.waiters = keep
		}
		b.m.waitersParked.Set(int64(len(b.waiters)))
		b.mu.Unlock()
	}()
	var writeMu sync.Mutex
	reply := func(kind byte, payload []byte) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		return wire.WriteFrame(conn, kind, payload)
	}
	buf := make([]byte, wire.FrameHeaderSize+maxRequest)
	for {
		kind, payload, err := readRequest(conn, buf)
		if err != nil {
			if errors.Is(err, errRefused) {
				b.m.rejects.Inc()
				b.logf("board: %v", err)
				reply(kindError, []byte(err.Error()))
			}
			return
		}
		switch kind {
		case kindRegister:
			r := wire.NewReader(payload)
			hostport := r.String()
			if err := r.Done(); err != nil {
				reply(kindError, []byte(fmt.Sprintf("bad register: %v", err)))
				return
			}
			b.mu.Lock()
			addr := b.next
			b.next++
			b.members[addr] = &member{hostport: hostport, lastSeen: time.Now(), conn: conn}
			b.m.registrations.Inc()
			b.m.members.Set(int64(len(b.members)))
			peers := b.peersLocked()
			b.wakeWaitersLocked()
			b.mu.Unlock()
			mine = append(mine, addr)
			w := wire.NewWriter(16 + 32*len(peers))
			w.Int64(int64(addr))
			resp := append(w.Bytes(), encodePeers(peers)...)
			if err := reply(kindRegistered, resp); err != nil {
				return
			}
		case kindPeers:
			b.mu.Lock()
			peers := b.peersLocked()
			b.mu.Unlock()
			if err := reply(kindPeerList, encodePeers(peers)); err != nil {
				return
			}
		case kindWait:
			r := wire.NewReader(payload)
			n := int(r.Uint32())
			if err := r.Done(); err != nil {
				reply(kindError, []byte(fmt.Sprintf("bad wait: %v", err)))
				return
			}
			b.mu.Lock()
			if len(b.members) >= n {
				peers := b.peersLocked()
				b.m.waitsServed.Inc()
				b.mu.Unlock()
				if err := reply(kindReady, encodePeers(peers)); err != nil {
					return
				}
				continue
			}
			wt := &waiter{n: n, conn: conn, ch: make(chan []byte, 1), done: make(chan struct{})}
			b.waiters = append(b.waiters, wt)
			b.m.waitersParked.Set(int64(len(b.waiters)))
			b.mu.Unlock()
			// Park the response on its own goroutine so the member can
			// keep heartbeating on this connection meanwhile.
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				select {
				case peers := <-wt.ch:
					reply(kindReady, peers)
				case <-wt.done:
					// Connection died before quorum; nothing to write.
				case <-b.quit:
				}
			}()
		case kindHeartbeat:
			b.m.heartbeats.Inc()
			b.mu.Lock()
			now := time.Now()
			for _, a := range mine {
				if m := b.members[a]; m != nil {
					m.lastSeen = now
				}
			}
			b.mu.Unlock()
		default:
			b.logf("board: unknown frame kind %d", kind)
			reply(kindError, []byte(fmt.Sprintf("unknown kind %d", kind)))
			return
		}
	}
}

// wakeWaitersLocked releases Wait requests satisfied by the current
// member count.
func (b *Board) wakeWaitersLocked() {
	if len(b.waiters) == 0 {
		return
	}
	var keep []*waiter
	for _, wt := range b.waiters {
		if len(b.members) >= wt.n {
			wt.ch <- encodePeers(b.peersLocked())
			b.m.waitsServed.Inc()
		} else {
			keep = append(keep, wt)
		}
	}
	b.waiters = keep
	b.m.waitersParked.Set(int64(len(b.waiters)))
}

// --- client ------------------------------------------------------------------

// Client is a member's connection to the board.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex // serializes frame writes (requests and heartbeats)
	reqMu   sync.Mutex // serializes request/response cycles
	buf     []byte

	hbStop chan struct{}
	hbOnce sync.Once
}

// Dial connects to a board at hostport.
func Dial(hostport string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", hostport, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("board: dial %s: %w", hostport, err)
	}
	return &Client{conn: conn, buf: make([]byte, 4096), hbStop: make(chan struct{})}, nil
}

// Close terminates the connection; the board forgets this member's
// registrations.
func (c *Client) Close() { c.poison() }

// poison tears the connection down. Called on Close and on any failed
// call: the protocol is strictly request/response on one stream, so
// after a timeout or short read the next frame in flight (possibly a
// late kindReady from a parked Wait) would be misread as the response
// to an unrelated call. There is no way to resynchronize — later calls
// fail fast and a member that wants back in re-dials and re-registers,
// which also lets the board retire its side of the state.
func (c *Client) poison() {
	c.hbOnce.Do(func() { close(c.hbStop) })
	c.conn.Close()
}

func (c *Client) write(kind byte, payload []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return wire.WriteFrame(c.conn, kind, payload)
}

// call performs one request/response cycle. timeout of zero waits
// forever. Any failure — write error, read error or timeout, wrong
// response kind — poisons the client: see poison.
func (c *Client) call(kind byte, payload []byte, wantKind byte, timeout time.Duration) ([]byte, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if err := c.write(kind, payload); err != nil {
		c.poison()
		return nil, err
	}
	if timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(timeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	gotKind, resp, err := wire.ReadFrame(c.conn, c.buf)
	if err != nil {
		c.poison()
		return nil, err
	}
	if gotKind == kindError {
		// The server closes its side after sending an error frame; match it.
		c.poison()
		return nil, fmt.Errorf("board: %s", resp)
	}
	if gotKind != wantKind {
		c.poison()
		return nil, fmt.Errorf("board: unexpected response kind %d (want %d)", gotKind, wantKind)
	}
	// resp aliases c.buf; copy before releasing reqMu.
	return append([]byte(nil), resp...), nil
}

// Register announces this member's listening hostport and returns the
// assigned transport address plus the peer table at registration time
// (which includes the new member).
func (c *Client) Register(hostport string) (transport.Addr, map[transport.Addr]string, error) {
	w := wire.NewWriter(len(hostport) + 8)
	w.String(hostport)
	resp, err := c.call(kindRegister, w.Bytes(), kindRegistered, 10*time.Second)
	if err != nil {
		return transport.NoAddr, nil, err
	}
	if len(resp) < 8 {
		return transport.NoAddr, nil, fmt.Errorf("board: short register response")
	}
	r := wire.NewReader(resp[:8])
	addr := transport.Addr(r.Int64())
	peers, err := decodePeers(resp[8:])
	if err != nil {
		return transport.NoAddr, nil, err
	}
	return addr, peers, nil
}

// Peers fetches the current peer table.
func (c *Client) Peers() (map[transport.Addr]string, error) {
	resp, err := c.call(kindPeers, nil, kindPeerList, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return decodePeers(resp)
}

// WaitForPeers blocks until the board has at least n members (or the
// timeout passes) and returns the peer table at that moment. Heartbeats
// keep flowing while it blocks. A timeout is fatal for the client: the
// server-side waiter may still fire later and desync the stream, so the
// connection is closed and the member must re-dial to continue.
func (c *Client) WaitForPeers(n int, timeout time.Duration) (map[transport.Addr]string, error) {
	w := wire.NewWriter(8)
	w.Uint32(uint32(n))
	resp, err := c.call(kindWait, w.Bytes(), kindReady, timeout)
	if err != nil {
		return nil, fmt.Errorf("board: waiting for %d peers: %w", n, err)
	}
	return decodePeers(resp)
}

// Heartbeat sends one liveness beacon.
func (c *Client) Heartbeat() error { return c.write(kindHeartbeat, nil) }

// StartHeartbeat launches a background beacon every interval until
// Close.
func (c *Client) StartHeartbeat(interval time.Duration) {
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-c.hbStop:
				return
			case <-tick.C:
				if err := c.Heartbeat(); err != nil {
					return
				}
			}
		}
	}()
}
