package tcptransport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"

	"tap/internal/transport"
	"tap/internal/wire"
)

// stampedSizes are the body sizes stamped frames cycle through: under and
// over the batch bound, so frames leave both from their own buffers and
// from the writer's batch, and a recycled buffer is as often too small for
// the next frame as too large.
var stampedSizes = []int{8, 64, 700, 5_000, 20_000, 40_000, 70_000}

// stamped is frame seq of a stamped sequence: its number, then bytes no
// other frame of the sequence has at the same offsets.
func stamped(seq uint64) rawMsg {
	body := make([]byte, stampedSizes[seq%uint64(len(stampedSizes))])
	for i := range body {
		body[i] = byte(seq*131 + uint64(i)*7 + 1)
	}
	binary.BigEndian.PutUint64(body, seq)
	return rawMsg{kind: 1, body: body}
}

// stampReader takes a connection's bytes apart into stamped frames and
// holds each to what was sent.
type stampReader struct {
	conn net.Conn
	pend []byte
	next uint64 // the frame expected next
}

// read takes one Read of at most n bytes and checks every frame it
// completes; false at end of stream.
func (r *stampReader) read(t *testing.T, n int) bool {
	t.Helper()
	buf := make([]byte, n)
	got, err := r.conn.Read(buf)
	r.pend = append(r.pend, buf[:got]...)
	for {
		kind, payload, tail, perr := wire.ParseFrame(r.pend)
		if perr == wire.ErrShort {
			break
		}
		if perr != nil {
			t.Fatalf("frame %d: %v", r.next, perr)
		}
		want := testFrame(1, 3, stamped(r.next).body)
		if kind != 1 || !bytes.Equal(r.pend[:len(r.pend)-len(tail)], want) {
			t.Fatalf("frame %d (%d payload bytes) is not the frame that was sent (%d bytes): its buffer was encoded into again before the socket had it",
				r.next, len(payload), len(want)-wire.FrameHeaderSize)
		}
		r.next++
		r.pend = append(r.pend[:0], tail...)
	}
	return err == nil
}

// pipeTransport is a transport whose peer walkDst is dialed as a net.Pipe;
// the far ends arrive on the returned channel, unread — so a writer blocks
// in its first Write until the test reads.
func pipeTransport(t *testing.T) (*Transport, <-chan net.Conn) {
	t.Helper()
	ends := make(chan net.Conn, 4) // more dials than any test here makes
	tr := New(Config{Codec: rawCodec{}, Dialer: &memDialer{serve: func(c net.Conn) { ends <- c }}})
	t.Cleanup(tr.Close)
	t.Cleanup(func() {
		for {
			select {
			case c := <-ends:
				c.Close()
			default:
				return
			}
		}
	})
	tr.SetPeer(walkDst, "first")
	return tr, ends
}

// livePeer is tr's current peer record for walkDst.
func livePeer(tr *Transport) *peer {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.conns[walkDst]
}

// TestFrameBuffersAreNotReusedBeforeTheyAreWritten keeps Send queueing
// behind a writer that a slow reader holds in Write after Write, so every
// frame is encoded into a buffer an earlier frame left — and every frame
// the peer reads must still be, byte for byte, the one that was sent: a
// buffer handed back before its Write returned, or before its copy into the
// batch was taken, would reach the reader carrying a later frame's bytes.
func TestFrameBuffersAreNotReusedBeforeTheyAreWritten(t *testing.T) {
	const frames = 600
	tr, ends := pipeTransport(t)
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for seq := uint64(0); seq < frames; seq++ {
			for tr.m.queueDepth.Load() >= sendQueueDepth-8 {
				runtime.Gosched() // never a full queue: every frame is to arrive
			}
			tr.Send(3, walkDst, stamped(seq))
		}
	}()
	// Nothing is read until the queue is deep behind the held writer.
	waitFor(t, "frames to queue behind the held writer", func() bool { return tr.m.queueDepth.Load() >= 100 })
	r := &stampReader{conn: <-ends}
	for r.next < frames {
		if !r.read(t, 3000) {
			t.Fatalf("the connection ended after %d of %d frames", r.next, frames)
		}
	}
	<-sent
	waitFor(t, "the last Write to return", func() bool { return tr.m.framesOut.Load() == frames })
	if st := tr.Stats(); st.Sent != frames || st.Dropped != 0 {
		t.Errorf("stats %+v, want %d sent and none dropped", st, frames)
	}
	if got := tr.m.queueDepth.Load(); got != 0 {
		t.Errorf("queue depth %d at rest", got)
	}
	p := livePeer(tr)
	if len(p.free) == 0 {
		t.Fatal("no buffer was handed back: the test exercised no reuse")
	}
	for len(p.free) > 0 {
		if buf := <-p.free; cap(buf) > 2*writeBatchSize {
			t.Errorf("a %d-byte buffer was kept, over the %d-byte bound", cap(buf), 2*writeBatchSize)
		}
	}
}

// TestTeardownMidQueueDropsEachFrameOnce tears a peer down while its writer
// is held in Write with frames queued behind it: the frame in the Write and
// every queued one are counted dropped exactly once, the queue gauge
// returns to zero, and what is sent to the peer's next endpoint afterwards
// — into fresh buffers, the old peer's being nobody's — arrives as sent.
func TestTeardownMidQueueDropsEachFrameOnce(t *testing.T) {
	const queued = 40
	teardowns := map[string]func(*Transport){
		"RemovePeer": func(tr *Transport) { tr.RemovePeer(walkDst) },
		"SetPeer":    func(tr *Transport) { tr.SetPeer(walkDst, "second") },
		"Close":      (*Transport).Close,
	}
	for name, teardown := range teardowns {
		t.Run(name, func(t *testing.T) {
			tr, ends := pipeTransport(t)
			tr.Send(3, walkDst, stamped(0))
			first := <-ends
			waitFor(t, "the writer to take the first frame", func() bool { return tr.m.queueDepth.Load() == 0 })
			for seq := uint64(1); seq <= queued; seq++ {
				tr.Send(3, walkDst, stamped(seq))
			}
			if got := tr.m.queueDepth.Load(); got != queued {
				t.Fatalf("queue depth %d with the writer held, want %d", got, queued)
			}

			teardown(tr)
			waitFor(t, "every frame to be counted dropped", func() bool { return tr.Stats().Dropped >= queued+1 })
			waitFor(t, "the writer to exit", func() bool { return tr.m.connsOut.Load() == 0 })
			if _, err := first.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("read from the torn-down connection: %v, want EOF", err)
			}
			if st := tr.Stats(); st.Dropped != queued+1 || tr.m.dropConnDown.Load() != queued+1 {
				t.Errorf("%d dropped (%d as conn_down), want %d: one for each frame queued or in the Write", st.Dropped, tr.m.dropConnDown.Load(), queued+1)
			}
			if got := tr.m.queueDepth.Load(); got != 0 {
				t.Errorf("queue depth %d after teardown", got)
			}
			if got := tr.m.framesOut.Load(); got != 0 {
				t.Errorf("%d frames counted written", got)
			}

			if name != "SetPeer" {
				return
			}
			const again = 5
			for seq := uint64(0); seq < again; seq++ {
				tr.Send(3, walkDst, stamped(seq))
			}
			r := &stampReader{conn: <-ends}
			for r.next < again {
				if !r.read(t, 3000) {
					t.Fatalf("the new connection ended after %d of %d frames", r.next, again)
				}
			}
			if got := tr.Stats().Dropped; got != queued+1 {
				t.Errorf("%d dropped after sending to the new endpoint, want the %d from the teardown", got, queued+1)
			}
		})
	}
}

// drainedTransport is a transport whose peer walkDst reads and discards.
func drainedTransport(t testing.TB) *Transport {
	t.Helper()
	tr := New(Config{Codec: rawCodec{}, Dialer: &memDialer{serve: func(c net.Conn) {
		io.Copy(io.Discard, c)
		c.Close()
	}}})
	t.Cleanup(tr.Close)
	tr.SetPeer(walkDst, "drain")
	return tr
}

// sendAndAwaitWrite sends msg and returns once its frame is on the socket.
func sendAndAwaitWrite(tr *Transport, msg transport.Message) {
	written := tr.m.framesOut.Load()
	tr.Send(3, walkDst, msg)
	for tr.m.framesOut.Load() == written {
		runtime.Gosched()
	}
}

// TestSteadyStateSendAllocatesNoFrame: once a peer has a written frame's
// buffer, sending the next frame of that size allocates none.
func TestSteadyStateSendAllocatesNoFrame(t *testing.T) {
	tr := drainedTransport(t)
	var msg transport.Message = rawMsg{kind: 1, body: make([]byte, 32<<10)} // boxed once, as a relayed envelope is
	sendAndAwaitWrite(tr, msg)
	if got := testing.AllocsPerRun(50, func() { sendAndAwaitWrite(tr, msg) }); got != 0 {
		t.Errorf("%.0f allocations per steady-state Send of a 32 KiB message, want 0", got)
	}
	if st := tr.Stats(); st.Dropped != 0 {
		t.Errorf("%d frames dropped", st.Dropped)
	}
}

// TestOversizeFrameBufferIsNotKept: a frame over twice the batch bound is
// written from its own buffer and that buffer is let go, so one large
// message does not pin its size on the peer.
func TestOversizeFrameBufferIsNotKept(t *testing.T) {
	tr := drainedTransport(t)
	sendAndAwaitWrite(tr, rawMsg{kind: 1, body: make([]byte, 3*writeBatchSize)})
	p := livePeer(tr)
	if n := len(p.free); n != 0 {
		t.Fatalf("%d buffers kept after one oversize frame, the first of %d bytes", n, cap(<-p.free))
	}
	sendAndAwaitWrite(tr, rawMsg{kind: 1, body: make([]byte, 100)})
	if n := len(p.free); n != 1 {
		t.Fatalf("%d buffers kept after a small frame, want its one", n)
	}
}

// BenchmarkTransportSendBulk is the send half of one bulk hop: a 32 KiB
// envelope framed, queued and written to a peer on loopback that reads and
// discards. Sends are paced to the writer — a full queue drops — so
// every iteration's frame crosses the socket.
func BenchmarkTransportSendBulk(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, c)
				c.Close()
			}()
		}
	}()
	tr := New(Config{Codec: rawCodec{}})
	defer tr.Close()
	tr.SetPeer(walkDst, ln.Addr().String())
	var msg transport.Message = rawMsg{kind: 1, body: make([]byte, 32<<10)}
	sendAndAwaitWrite(tr, msg) // dial, and leave the peer a buffer
	b.SetBytes(32 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tr.m.queueDepth.Load() >= freeBufDepth/2 {
			runtime.Gosched()
		}
		tr.Send(3, walkDst, msg)
	}
	for tr.m.framesOut.Load() != uint64(b.N)+1 {
		runtime.Gosched()
	}
	b.StopTimer()
	if st := tr.Stats(); st.Dropped != 0 {
		b.Fatalf("%d frames dropped", st.Dropped)
	}
}
