package tcptransport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"tap/internal/transport"
	"tap/internal/wire"
)

// gatedConn is the writer's end of a connection. It records every Write,
// holds the first until the test releases it — so what is sent meanwhile
// queues up behind it — and can fail a chosen one.
type gatedConn struct {
	net.Conn               // a pipe end nobody reads; only Close reaches it
	entered  chan struct{} // closed when the first Write has arrived
	release  chan struct{} // the first Write returns once open has closed this
	opened   sync.Once
	failAt   int // the Write to fail, counting from 1; 0 fails none

	mu     sync.Mutex
	writes [][]byte
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(b))
	n := len(c.writes)
	c.mu.Unlock()
	if n == 1 {
		close(c.entered)
		<-c.release
	}
	if n == c.failAt {
		return 0, errors.New("write failed by the test")
	}
	return len(b), nil
}

// open lets the first Write return.
func (c *gatedConn) open() { c.opened.Do(func() { close(c.release) }) }

func (c *gatedConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

func (c *gatedConn) DialContext(context.Context, string, string) (net.Conn, error) { return c, nil }

// gatedTransport is a transport whose one peer, walkDst, is reached over a
// gatedConn. The gate is opened at cleanup at the latest, ahead of Close.
func gatedTransport(t *testing.T, failAt int) (*Transport, *gatedConn) {
	t.Helper()
	end, _ := net.Pipe()
	c := &gatedConn{Conn: end, entered: make(chan struct{}), release: make(chan struct{}), failAt: failAt}
	tr := New(Config{Codec: rawCodec{}, Dialer: c})
	t.Cleanup(tr.Close)
	t.Cleanup(c.open)
	tr.SetPeer(walkDst, "gate")
	return tr, c
}

// sendBehindGate sends msgs[0], waits for the writer to be stuck in its
// Write, and queues the rest behind it.
func sendBehindGate(t *testing.T, tr *Transport, c *gatedConn, src transport.Addr, msgs []rawMsg) {
	t.Helper()
	tr.Send(src, walkDst, msgs[0])
	select {
	case <-c.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first frame never reached the connection")
	}
	for _, m := range msgs[1:] {
		tr.Send(src, walkDst, m)
	}
	if got := tr.m.queueDepth.Load(); got != int64(len(msgs)-1) {
		t.Fatalf("queue depth %d with the writer held, want %d", got, len(msgs)-1)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWriterBatchesWhatIsQueued holds the batching writer to the writer it
// replaced, one conn.Write per frame: the bytes on the connection, what a
// reader makes of them and every counter must be that writer's, while the
// Writes are fewer, each carries whole frames only, and a frame that was
// alone in the queue is written from its own buffer as before.
func TestWriterBatchesWhatIsQueued(t *testing.T) {
	const src transport.Addr = 3
	sizes := []int{32, // alone: the writer takes it before anything else is queued
		10, 100, 1000, 70_000, // a frame over the bound, gathered behind small ones
		20_000, 20_000, 20_000, 20_000, 20_000, // a run that outgrows one batch
		1, 300, 0, 5}
	msgs := make([]rawMsg, len(sizes))
	var want []delivered
	var wantStream []byte
	var frameEnds []int // offsets in wantStream where a frame ends
	for i, size := range sizes {
		body := bytes.Repeat([]byte{byte('a' + i)}, size)
		msgs[i] = rawMsg{kind: byte(1 + i), body: body}
		want = append(want, delivered{kind: msgs[i].kind, src: src, dst: walkDst, body: string(body)})
		wantStream = append(wantStream, testFrame(msgs[i].kind, src, body)...)
		frameEnds = append(frameEnds, len(wantStream))
	}

	tr, c := gatedTransport(t, 0)
	sendBehindGate(t, tr, c, src, msgs)
	c.open()
	waitFor(t, "every frame to be written", func() bool { return tr.m.framesOut.Load() == uint64(len(msgs)) })

	writes := c.written()
	if !bytes.Equal(bytes.Join(writes, nil), wantStream) {
		t.Fatal("the bytes on the connection differ from one Write per frame")
	}
	if got := referenceWalk(bytes.Join(writes, nil)); !reflect.DeepEqual(got.msgs, want) {
		t.Fatalf("a reader gets %d messages, want %d; first difference at %d", len(got.msgs), len(want), firstDifference(got.msgs, want))
	}
	if !bytes.Equal(writes[0], wantStream[:frameEnds[0]]) {
		t.Error("the frame that was alone in the queue was not written by itself")
	}
	if len(writes) >= len(msgs) {
		t.Errorf("%d Writes for %d frames, %d of them queued together", len(writes), len(msgs), len(msgs)-1)
	}
	isEnd := make(map[int]bool)
	for _, end := range frameEnds {
		isEnd[end] = true
	}
	off := 0
	for i, w := range writes {
		off += len(w)
		if !isEnd[off] {
			t.Fatalf("Write %d ends inside a frame, at byte %d of the stream", i, off)
		}
		// Walk to the write's last frame: gathering was to stop once the
		// batch reached the bound, so all but the last fit under it.
		rest, last := w, 0
		for len(rest) > 0 {
			size, err := wire.FrameSize(rest)
			if err != nil {
				t.Fatalf("Write %d: %v", i, err)
			}
			last, rest = size, rest[size:]
		}
		if len(w)-last >= writeBatchSize {
			t.Errorf("Write %d gathered another frame with %d bytes already in hand (bound %d)", i, len(w)-last, writeBatchSize)
		}
	}

	m := tr.m
	if got := m.bytesOut.Load(); got != uint64(len(wantStream)) {
		t.Errorf("bytes_out %d, want %d", got, len(wantStream))
	}
	if got := m.queueDepth.Load(); got != 0 {
		t.Errorf("queue depth %d at rest", got)
	}
	if st := tr.Stats(); st.Sent != uint64(len(msgs)) || st.Dropped != 0 {
		t.Errorf("stats %+v, want %d sent, none dropped", st, len(msgs))
	}
}

// TestFailedBatchCountsEveryFrame: a Write that fails loses every frame it
// carried, and each is counted, so sent = frames_out + drops still holds.
func TestFailedBatchCountsEveryFrame(t *testing.T) {
	msgs := make([]rawMsg, 6)
	for i := range msgs {
		msgs[i] = rawMsg{kind: 1, body: []byte("one of a batch")}
	}
	tr, c := gatedTransport(t, 2)
	sendBehindGate(t, tr, c, 3, msgs)
	c.open()
	waitFor(t, "the peer to be torn down", func() bool { return !tr.Reachable(walkDst) })

	writes := c.written()
	frame := len(testFrame(1, 3, msgs[0].body))
	if len(writes) != 2 || len(writes[1]) != (len(msgs)-1)*frame {
		t.Fatalf("%d Writes, want the lone frame and one batch of %d", len(writes), len(msgs)-1)
	}
	m := tr.m
	if out, down := m.framesOut.Load(), m.dropConnDown.Load(); out != 1 || down != uint64(len(msgs)-1) {
		t.Errorf("frames_out %d, conn_down drops %d, want 1 and %d", out, down, len(msgs)-1)
	}
	if st := tr.Stats(); st.Sent != m.framesOut.Load()+st.Dropped {
		t.Errorf("sent %d != frames_out %d + dropped %d", st.Sent, m.framesOut.Load(), st.Dropped)
	}
	if got := m.queueDepth.Load(); got != 0 {
		t.Errorf("queue depth %d at rest", got)
	}
	if got := m.bytesOut.Load(); got != uint64(frame) {
		t.Errorf("bytes_out %d, want the one written frame's %d", got, frame)
	}
}
