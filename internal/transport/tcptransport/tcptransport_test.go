package tcptransport

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tap/internal/transport"
	"tap/internal/wire"
)

// textMsg is the test codec's only message kind: a plain byte string.
type textMsg struct{ body []byte }

func (m textMsg) SizeBytes() int { return len(m.body) }

type textCodec struct{}

func (textCodec) AppendEncode(dst []byte, msg transport.Message) (byte, []byte, error) {
	tm, ok := msg.(textMsg)
	if !ok {
		return 0, nil, fmt.Errorf("unexpected message %T", msg)
	}
	return 1, append(dst, tm.body...), nil
}

// NewDecoder: a textCodec decodes into fresh messages, so it keeps no state
// to lend.
func (c textCodec) NewDecoder() Decoder { return c }

func (textCodec) Decode(kind byte, payload []byte) (transport.Message, error) {
	if kind != 1 {
		return nil, fmt.Errorf("unexpected kind %d", kind)
	}
	return textMsg{body: append([]byte(nil), payload...)}, nil
}

// collector records deliveries and lets tests wait for a count.
type collector struct {
	mu   sync.Mutex
	got  []string
	from []transport.Addr
	ch   chan struct{}
}

func newCollector() *collector { return &collector{ch: make(chan struct{}, 1024)} }

func (c *collector) Deliver(from transport.Addr, msg transport.Message) {
	c.mu.Lock()
	c.got = append(c.got, string(msg.(textMsg).body))
	c.from = append(c.from, from)
	c.mu.Unlock()
	// Never block a delivery: a test that floods a collector it does not
	// wait on (TestSendDuringPeerTeardown) would otherwise fill the
	// channel, wedge this handler holding the dispatch lock and hang Close.
	select {
	case c.ch <- struct{}{}:
	default:
	}
}

func (c *collector) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			c.mu.Lock()
			defer c.mu.Unlock()
			t.Fatalf("timed out waiting for %d deliveries, have %d: %v", n, len(c.got), c.got)
		}
	}
}

func newPair(t *testing.T) (*Transport, *Transport) {
	t.Helper()
	a := New(Config{Codec: textCodec{}})
	b := New(Config{Codec: textCodec{}})
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	aAddr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bAddr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(1, bAddr)
	b.SetPeer(0, aAddr)
	return a, b
}

func TestSendBothDirections(t *testing.T) {
	a, b := newPair(t)
	ca, cb := newCollector(), newCollector()
	a.Attach(0, ca)
	b.Attach(1, cb)

	a.Send(0, 1, textMsg{body: []byte("hello")})
	cb.wait(t, 1)
	b.Send(1, 0, textMsg{body: []byte("world")})
	ca.wait(t, 1)

	if cb.got[0] != "hello" || cb.from[0] != 0 {
		t.Fatalf("b got %q from %d", cb.got[0], cb.from[0])
	}
	if ca.got[0] != "world" || ca.from[0] != 1 {
		t.Fatalf("a got %q from %d", ca.got[0], ca.from[0])
	}
}

func TestConnectionReuse(t *testing.T) {
	a, b := newPair(t)
	cb := newCollector()
	b.Attach(1, cb)

	const n = 100
	for i := 0; i < n; i++ {
		a.Send(0, 1, textMsg{body: []byte(fmt.Sprintf("m%d", i))})
	}
	cb.wait(t, n)
	if dials := a.Stats().Dials; dials != 1 {
		t.Fatalf("expected 1 dial for %d messages, got %d", n, dials)
	}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	// TCP preserves order on a single connection.
	for i, g := range cb.got {
		if want := fmt.Sprintf("m%d", i); g != want {
			t.Fatalf("message %d: got %q want %q", i, g, want)
		}
	}
}

func TestLocalLoopback(t *testing.T) {
	a := New(Config{Codec: textCodec{}})
	t.Cleanup(a.Close)
	c := newCollector()
	a.Attach(5, c)
	// No Listen, no peers: a local destination must still deliver.
	a.Send(3, 5, textMsg{body: []byte("loop")})
	c.wait(t, 1)
	if c.got[0] != "loop" || c.from[0] != 3 {
		t.Fatalf("got %q from %d", c.got[0], c.from[0])
	}
	if a.Stats().Dials != 0 {
		t.Fatalf("loopback dialed")
	}
}

func TestUnknownPeerDrops(t *testing.T) {
	a := New(Config{Codec: textCodec{}})
	t.Cleanup(a.Close)
	a.Send(0, 42, textMsg{body: []byte("void")})
	if d := a.Stats().Dropped; d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
	if a.Reachable(42) {
		t.Fatal("unknown peer reported reachable")
	}
}

// countingCodec counts what Send asks it to encode.
type countingCodec struct {
	textCodec
	encodes *atomic32
}

func (c countingCodec) AppendEncode(dst []byte, msg transport.Message) (byte, []byte, error) {
	c.encodes.inc()
	return c.textCodec.AppendEncode(dst, msg)
}

// TestNoEncodeWithoutDestination: a message with nowhere to go — an
// unknown or removed peer, a peer already torn down, a closed transport —
// is dropped under its own cause before the codec or an allocation is
// spent on it.
func TestNoEncodeWithoutDestination(t *testing.T) {
	encodes := &atomic32{}
	d := &memDialer{serve: func(c net.Conn) { io.Copy(io.Discard, c) }}
	a := New(Config{Codec: countingCodec{encodes: encodes}, Dialer: d})
	t.Cleanup(a.Close)
	msg := textMsg{body: []byte("undeliverable")}

	a.Send(0, 42, msg) // never known
	a.SetPeer(7, "mem")
	a.RemovePeer(7)
	a.Send(0, 7, msg) // known once, removed
	if got := a.m.dropUnknownPeer.Load(); got != 2 {
		t.Fatalf("unknown-peer drops = %d, want 2", got)
	}

	a.SetPeer(8, "mem")
	p := a.peerFor(8)
	p.shutdown() // torn down, still the record Send resolves
	a.Send(0, 8, msg)
	if got := a.m.dropConnDown.Load(); got != 1 {
		t.Fatalf("conn-down drops = %d, want 1", got)
	}

	a.Close()
	a.Send(0, 8, msg)
	if got := a.m.dropUnknownPeer.Load(); got != 3 {
		t.Fatalf("unknown-peer drops after Close = %d, want 3", got)
	}
	if n := encodes.get(); n != 0 {
		t.Fatalf("%d undeliverable messages were encoded", n)
	}
	if st := a.Stats(); st.Sent != 4 || st.Dropped != 4 {
		t.Fatalf("stats %+v, want 4 sent, 4 dropped", st)
	}
}

// failDialer always errors, recording how often it was asked.
type failDialer struct{ calls atomic32 }

type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) inc() int { a.mu.Lock(); defer a.mu.Unlock(); a.n++; return a.n }
func (a *atomic32) get() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

func (d *failDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	d.calls.inc()
	return nil, fmt.Errorf("mock dialer: refusing %s", address)
}

func TestDialFailureMarksDown(t *testing.T) {
	d := &failDialer{}
	a := New(Config{Codec: textCodec{}, Dialer: d})
	t.Cleanup(a.Close)
	a.SetPeer(1, "127.0.0.1:1") // never dialed for real — mock intercepts

	if !a.Reachable(1) {
		t.Fatal("fresh peer should be reachable until proven otherwise")
	}
	a.Send(0, 1, textMsg{body: []byte("doomed")})
	deadline := time.Now().Add(5 * time.Second)
	for a.Reachable(1) {
		if time.Now().After(deadline) {
			t.Fatal("peer still reachable after failed dial")
		}
		time.Sleep(time.Millisecond)
	}
	if d.calls.get() != 1 {
		t.Fatalf("dialer called %d times", d.calls.get())
	}
	// Refreshing the peer entry restores optimism.
	a.SetPeer(1, "127.0.0.1:1")
	if !a.Reachable(1) {
		t.Fatal("SetPeer did not clear the down mark")
	}
}

// memDialer returns the client half of a net.Pipe and hands the server
// half to a callback, letting tests see raw bytes without a socket.
type memDialer struct{ serve func(net.Conn) }

func (d *memDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	client, server := net.Pipe()
	go d.serve(server)
	return client, nil
}

func TestCustomDialerSeesFrames(t *testing.T) {
	frames := make(chan struct {
		kind    byte
		payload []byte
	}, 1)
	d := &memDialer{serve: func(c net.Conn) {
		defer c.Close()
		kind, payload, err := wire.ReadFrame(c, nil)
		if err != nil {
			return
		}
		frames <- struct {
			kind    byte
			payload []byte
		}{kind, append([]byte(nil), payload...)}
	}}
	a := New(Config{Codec: textCodec{}, Dialer: d})
	t.Cleanup(a.Close)
	a.SetPeer(9, "mem")
	a.Send(2, 9, textMsg{body: []byte("framed")})

	select {
	case f := <-frames:
		if f.kind != 1 {
			t.Fatalf("frame kind %d", f.kind)
		}
		if len(f.payload) != 16+len("framed") {
			t.Fatalf("payload %d bytes, want src+dst+body = %d", len(f.payload), 16+len("framed"))
		}
		if string(f.payload[16:]) != "framed" {
			t.Fatalf("body %q", f.payload[16:])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no frame reached the dialer-provided connection")
	}
}

func TestScheduleSerializedWithDeliveries(t *testing.T) {
	a := New(Config{Codec: textCodec{}})
	t.Cleanup(a.Close)

	var mu sync.Mutex
	inCallback := false
	done := make(chan struct{})
	// If deliveries and timers ever overlapped, the flag check would
	// trip under -race or observe inCallback == true.
	check := func() {
		mu.Lock()
		if inCallback {
			mu.Unlock()
			t.Error("callbacks overlapped")
			return
		}
		inCallback = true
		mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		mu.Lock()
		inCallback = false
		mu.Unlock()
	}
	a.Attach(1, transport.HandlerFunc(func(from transport.Addr, msg transport.Message) { check() }))
	const n = 50
	var remaining sync.WaitGroup
	remaining.Add(2 * n)
	for i := 0; i < n; i++ {
		a.Schedule(time.Duration(i)*time.Millisecond/10, transport.Func(func() { check(); remaining.Done() }))
		go func() {
			a.Send(0, 1, textMsg{body: []byte("x")})
			remaining.Done()
		}()
	}
	go func() { remaining.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out")
	}
}

// TestHandlersNeverOverlap: eight inbound connections deliver to one
// handler, each frame on its own connection's reader, interleaved with
// Schedule(0) callbacks on the loop. Every callback mutates state nothing
// but the dispatch lock guards and asserts it is alone in there: a
// delivery made outside the lock is a data race under -race, and a
// tripped flag without it.
func TestHandlersNeverOverlap(t *testing.T) {
	const senders, rounds = 8, 100
	rx := New(Config{Codec: textCodec{}})
	t.Cleanup(rx.Close)
	host, err := rx.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		inside bool // unsynchronised on purpose
		count  int
		done   = make(chan struct{})
	)
	enter := func() {
		if inside {
			t.Error("two callbacks ran at once")
		}
		inside = true
		count++
		if count == (senders+1)*rounds {
			close(done)
		}
		runtime.Gosched()
		inside = false
	}
	rx.Attach(1, transport.HandlerFunc(func(transport.Addr, transport.Message) { enter() }))
	txs := make([]*Transport, senders)
	for i := range txs {
		txs[i] = New(Config{Codec: textCodec{}})
		t.Cleanup(txs[i].Close)
		txs[i].SetPeer(1, host)
	}
	for r := 0; r < rounds; r++ {
		for i, tx := range txs {
			tx.Send(transport.Addr(10+i), 1, textMsg{body: []byte("x")})
		}
		rx.Schedule(0, transport.Func(enter))
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %d deliveries and callbacks", (senders+1)*rounds)
	}
	if got := rx.m.connOpensIn.Load(); got != senders {
		t.Errorf("%d inbound connections, want %d", got, senders)
	}
}

// TestLocalFloodDoesNotWedge: a handler sends more co-hosted messages in
// one Deliver than the dispatch queue holds — run by the loop, or by a
// reader holding the dispatch lock; either way nothing drains the queue
// until it returns. It returns: the excess is dropped on queue_full, every
// message is delivered or counted, and Close returns.
func TestLocalFloodDoesNotWedge(t *testing.T) {
	const flood = 2000
	for _, via := range []string{"loop", "reader"} {
		t.Run(via, func(t *testing.T) {
			a, b := newPair(t)
			var sunk atomic.Int64
			b.Attach(2, transport.HandlerFunc(func(transport.Addr, transport.Message) { sunk.Add(1) }))
			returned := make(chan struct{})
			b.Attach(1, transport.HandlerFunc(func(transport.Addr, transport.Message) {
				for i := 0; i < flood; i++ {
					b.Send(1, 2, textMsg{body: []byte("flood")})
				}
				close(returned)
			}))
			trigger := textMsg{body: []byte("go")}
			if via == "loop" {
				b.Send(0, 1, trigger)
			} else {
				a.Send(0, 1, trigger)
			}
			select {
			case <-returned:
			case <-time.After(10 * time.Second):
				t.Fatal("the flooding handler never returned")
			}
			waitFor(t, "every message delivered or dropped", func() bool {
				return sunk.Load()+int64(b.m.dropQueueFull.Load()) == flood
			})
			if b.m.dropQueueFull.Load() == 0 {
				t.Error("nothing dropped: the flood never filled the queue")
			}
			closed := make(chan struct{})
			go func() { b.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close did not return")
			}
		})
	}
}

func TestNowMonotonic(t *testing.T) {
	a := New(Config{Codec: textCodec{}})
	t.Cleanup(a.Close)
	t0 := a.Now()
	time.Sleep(time.Millisecond)
	t1 := a.Now()
	if t1 <= t0 {
		t.Fatalf("Now went backward: %v then %v", t0, t1)
	}
}

// TestSendDuringPeerTeardown hammers Send from several goroutines while
// the control path repeatedly tears the peer down (endpoint change,
// removal, re-add). Before p.out teardown moved to a quit channel this
// panicked with "send on closed channel".
func TestSendDuringPeerTeardown(t *testing.T) {
	a, b := newPair(t)
	cb := newCollector()
	b.Attach(1, cb)
	bHostport := b.ln.Addr().String()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					a.Send(0, 1, textMsg{body: []byte("x")})
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		// A changed endpoint tears the old connection down mid-send...
		a.SetPeer(1, "127.0.0.1:9")
		a.SetPeer(1, bHostport)
		// ...and so does removing the peer outright.
		a.RemovePeer(1)
		a.SetPeer(1, bHostport)
	}
	close(stop)
	wg.Wait()
}

// TestConnectionChurnDoesNotLeakGoroutines kills the peer's connection
// on every send and re-adds it, many times over. Before the
// per-connection done channel, each dead connection left a watcher
// goroutine parked on <-t.quit until Close.
func TestConnectionChurnDoesNotLeakGoroutines(t *testing.T) {
	// Every dial yields a pipe whose far end closes immediately, so each
	// writer dies on its first write.
	d := &memDialer{serve: func(c net.Conn) { c.Close() }}
	a := New(Config{Codec: textCodec{}, Dialer: d})
	t.Cleanup(a.Close)

	churn := func() {
		a.SetPeer(1, "mem")
		a.Send(0, 1, textMsg{body: []byte("x")})
		deadline := time.Now().Add(5 * time.Second)
		for a.Reachable(1) {
			if time.Now().After(deadline) {
				t.Fatal("peer never went down")
			}
			time.Sleep(time.Millisecond)
		}
	}
	churn() // warm up: loop goroutine, first writer, etc.
	base := runtime.NumGoroutine()
	const cycles = 40
	for i := 0; i < cycles; i++ {
		churn()
	}
	// Give the last writer and its watcher a moment to unwind.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+5 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d across %d connection churns",
				base, runtime.NumGoroutine(), cycles)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDetachStopsDelivery(t *testing.T) {
	a, b := newPair(t)
	cb := newCollector()
	b.Attach(1, cb)
	a.Send(0, 1, textMsg{body: []byte("one")})
	cb.wait(t, 1)
	b.Detach(1)
	if b.Attached(1) {
		t.Fatal("still attached after Detach")
	}
	a.Send(0, 1, textMsg{body: []byte("two")})
	// The second send must not deliver; give it a moment then check.
	time.Sleep(50 * time.Millisecond)
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if len(cb.got) != 1 {
		t.Fatalf("delivered after detach: %v", cb.got)
	}
}
