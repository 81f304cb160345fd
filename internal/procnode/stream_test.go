package procnode

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	randv2 "math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
	"tap/internal/wire"
)

// The loss tests' overlay: client, three forward hops, two reply hops, the
// responder — one transport each, as in the deployment.
const (
	lossClient = transport.Addr(0)
	lossHop0   = transport.Addr(1)
	lossHop1   = transport.Addr(2)
	lossNodes  = 7
	// lossTimeout is the re-send deadline of the tests that lose a frame.
	// Each waits one deadline per loss, and a loaded box must not reach it
	// for a frame that was not lost: 50 ms did, under -race.
	lossTimeout = 250 * time.Millisecond
)

func lossStreamConfig(timeout time.Duration) StreamConfig {
	return StreamConfig{
		ForwardHops: []transport.Addr{lossHop0, lossHop1, 3},
		ReplyHops:   []transport.Addr{4, 5},
		Dest:        6,
		ChunkSize:   64,
		Timeout:     timeout,
	}
}

// frameTap is a test's hold on one node's inbound frames of one kind: the
// node's codec, with every connection's decoder wrapped in one that can
// refuse a frame. The transport counts a refused frame as a decode error
// and delivers nothing, so refusing is losing — the frame the test chose,
// no timing involved. It does not embed Codec: the transport decodes with
// what NewDecoder returns, and a promoted NewDecoder would bypass the tap.
type frameTap struct {
	kind byte

	mu   sync.Mutex
	seen [][]byte                         // every frame of kind, in arrival order
	lose func(nth int, frame []byte) bool // called with mu held; nil loses nothing
}

func (f *frameTap) AppendEncode(dst []byte, msg transport.Message) (byte, []byte, error) {
	return Codec{}.AppendEncode(dst, msg)
}

func (f *frameTap) NewDecoder() tcptransport.Decoder { return tapDecoder{f, Codec{}.NewDecoder()} }

// tapDecoder is one connection's decoder behind the tap.
type tapDecoder struct {
	tap   *frameTap
	inner tcptransport.Decoder
}

func (d tapDecoder) Decode(kind byte, payload []byte) (transport.Message, error) {
	if f := d.tap; kind == f.kind {
		f.mu.Lock()
		nth := len(f.seen)
		f.seen = append(f.seen, bytes.Clone(payload))
		lost := f.lose != nil && f.lose(nth, payload)
		f.mu.Unlock()
		if lost {
			return nil, errors.New("frame lost by the test")
		}
	}
	return d.inner.Decode(kind, payload)
}

// arrivals returns the positions, in arrival order, of the frames equal to
// the nth: a re-sent envelope is the same bytes again.
func (f *frameTap) arrivals(nth int) []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var at []int
	for i, frame := range f.seen {
		if bytes.Equal(frame, f.seen[nth]) {
			at = append(at, i)
		}
	}
	return at
}

func streamPayload(t testing.TB, n int) []byte {
	t.Helper()
	p := make([]byte, n)
	if _, err := rand.Read(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStreamResendsOnlyTheLostChunk loses one chunk of 40 — on the forward
// path, on the reply path, or not at all but held back past the RTO — and
// requires that it alone be re-sent: the stream completes, that chunk is
// sent twice, and meanwhile the window slid on to its full width, so hop 0
// sees the re-send exactly streamWindow frames after the original.
func TestStreamResendsOnlyTheLostChunk(t *testing.T) {
	const (
		nChunks = 40
		lost    = 10
		timeout = lossTimeout
	)
	loseNth := func(nth int, _ []byte) bool { return nth == lost }
	cases := []struct {
		name        string
		at          transport.Addr
		kind        byte
		late        bool // the lost frame turns up again, after the re-send was made
		repliesHome uint64
	}{
		{name: "lost on the forward path", at: lossHop1, kind: kindForward, repliesHome: nChunks},
		{name: "echo lost on the reply path", at: lossClient, kind: kindReply, repliesHome: nChunks},
		{name: "echo delayed past the deadline", at: lossClient, kind: kindReply, late: true, repliesHome: nChunks + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			order := &frameTap{kind: kindForward} // hop 0's view: what the initiator sent, in order
			fault := &frameTap{kind: c.kind, lose: loseNth}
			nodes := startOverlayOn(t, lossNodes, map[transport.Addr]tcptransport.Codec{lossHop0: order, c.at: fault})
			client := nodes[lossClient]
			if c.late {
				// The echoes behind the held one arrive in order, so the
				// next frame after a window's worth is the re-sent chunk's:
				// hand the original in just ahead of it.
				fault.mu.Lock()
				var held transport.Message
				fault.lose = func(nth int, frame []byte) bool {
					switch nth {
					case lost:
						// Decoded from a copy, by a decoder of its own: it is
						// delivered after the read buffer under frame, and the
						// connection's decoder, have moved on.
						held, _ = Codec{}.Decode(kindReply, bytes.Clone(frame))
						return true
					case lost + streamWindow:
						msg := held
						client.tr.Schedule(0, transport.Func(func() { client.Deliver(5, msg) }))
					}
					return false
				}
				fault.mu.Unlock()
			}

			payload := streamPayload(t, nChunks*64)
			echo, err := client.RoundTripStream(lossStreamConfig(timeout), payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(echo, payload) {
				t.Fatal("echo differs from payload")
			}
			if got := client.m.streamRetransmits.Load(); got != 1 {
				t.Errorf("%d retransmits, want 1", got)
			}
			if got := client.m.streamChunks.Load(); got != nChunks {
				t.Errorf("stream_chunks = %d, want %d: a chunk answered twice counts once", got, nChunks)
			}
			if got := client.m.repliesHome.Load(); got != c.repliesHome {
				t.Errorf("%d echoes came home, want %d", got, c.repliesHome)
			}
			if got := nodes[lossHop0].m.peelsForward.Load(); got != nChunks+1 {
				t.Errorf("hop 0 peeled %d envelopes, want %d: every chunk once and the lost one again", got, nChunks+1)
			}
			if at := order.arrivals(lost); len(at) != 2 || at[1] != lost+streamWindow {
				t.Errorf("chunk %d reached hop 0 at positions %v, want [%d %d]: the window did not slide to its full width past the lost chunk",
					lost, at, lost, lost+streamWindow)
			}
		})
	}
}

// TestStreamRTOFollowsSlowEchoes holds every echo at the client and hands
// it in 1.5 × Timeout later, so every chunk outlives Timeout. A fixed
// per-request deadline re-sends all of them. The window re-sends only its
// first head: that RTO expires before any echo could come home. The
// backoff then outlasts the echo, Karn's rule keeps the re-sent chunk's
// round trip out of the estimate, and the other echoes' samples lift the
// RTO above their round trip. The bound leaves room for timer jitter on a
// loaded box to cost one re-send per round of the window.
func TestStreamRTOFollowsSlowEchoes(t *testing.T) {
	const (
		nChunks = 40
		timeout = lossTimeout
		rounds  = (nChunks + streamWindow - 1) / streamWindow
	)
	slow := &frameTap{kind: kindReply}
	nodes := startOverlayOn(t, lossNodes, map[transport.Addr]tcptransport.Codec{lossClient: slow})
	client := nodes[lossClient]
	slow.mu.Lock()
	slow.lose = func(_ int, frame []byte) bool {
		// Decoded from a copy, by a decoder of its own: it is delivered
		// after the read buffer and the connection's decoder have moved on.
		msg, _ := Codec{}.Decode(kindReply, bytes.Clone(frame))
		client.tr.Schedule(timeout*3/2, transport.Func(func() { client.Deliver(5, msg) }))
		return true
	}
	slow.mu.Unlock()

	payload := streamPayload(t, nChunks*64)
	echo, err := client.RoundTripStream(lossStreamConfig(timeout), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatal("echo differs from payload")
	}
	if got := client.m.streamRetransmits.Load(); got > rounds {
		t.Errorf("%d retransmits, want at most %d: the first head, and at most one a round after the RTO learned the echoes' round trip", got, rounds)
	}
}

// TestStreamResendsThroughItsOwnFirstHop makes the initiator its own first
// forward hop — the transport hands the chunk's envelope to the very node
// that keeps it for re-sending, and that node peels what it is handed in
// place — and loses one echo. The re-send must be the envelope as built,
// not what the first peel left of it.
func TestStreamResendsThroughItsOwnFirstHop(t *testing.T) {
	const nChunks = 4
	fault := &frameTap{kind: kindReply, lose: func(nth int, _ []byte) bool { return nth == 1 }}
	nodes := startOverlayOn(t, lossNodes, map[transport.Addr]tcptransport.Codec{lossClient: fault})
	client := nodes[lossClient]
	cfg := lossStreamConfig(lossTimeout)
	cfg.ForwardHops = []transport.Addr{lossClient, lossHop1, 3}

	payload := streamPayload(t, nChunks*64)
	echo, err := client.RoundTripStream(cfg, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatal("echo differs from payload")
	}
	if got := client.m.streamRetransmits.Load(); got != 1 {
		t.Errorf("%d retransmits, want 1", got)
	}
	if got := client.m.peelsForward.Load(); got != nChunks+1 {
		t.Errorf("the client peeled %d envelopes as hop 0, want %d: every chunk once and the lost one again", got, nChunks+1)
	}
}

// anchorCounts sums what the hop nodes count: anchors installed (every acked
// AnchorMsg, so a re-sent one counts again) and anchors held.
func anchorCounts(nodes []*Node) (installed uint64, held int64) {
	for _, n := range nodes {
		installed += n.m.anchorInstalls.Load()
		held += n.m.anchorsHeld.Load()
	}
	return installed, held
}

// TestInstallsShareTheWindow holds every AnchorAck at the client until the
// fifth has arrived: all five installs were on the wire before any ack was
// consumed, which a deployment that waits for one ack before sending the
// next install never reaches. Released, they open the barrier, and no chunk
// left the client before that.
func TestInstallsShareTheWindow(t *testing.T) {
	var nodes []*Node
	var held []transport.Message
	var chunksBeforeRelease uint64
	acks := &frameTap{kind: kindAnchorAck}
	acks.lose = func(nth int, frame []byte) bool {
		if nth >= 5 {
			return false
		}
		msg, _ := Codec{}.Decode(kindAnchorAck, frame) // a decoder of its own: the message is held
		held = append(held, msg)
		if nth == 4 {
			chunksBeforeRelease = nodes[lossHop0].m.peelsForward.Load()
			client := nodes[lossClient]
			for _, msg := range held {
				msg := msg
				client.tr.Schedule(0, transport.Func(func() { client.Deliver(lossHop0, msg) }))
			}
		}
		return true
	}
	nodes = startOverlayOn(t, lossNodes, map[transport.Addr]tcptransport.Codec{lossClient: acks})
	client := nodes[lossClient]

	payload := streamPayload(t, 3*64)
	echo, err := client.RoundTripStream(lossStreamConfig(0), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatal("echo differs from payload")
	}
	if installed, held := anchorCounts(nodes); installed != 5 || held != 5 {
		t.Errorf("%d installs for %d anchors held, want 5 and 5", installed, held)
	}
	acks.mu.Lock()
	tapped := len(held)
	acks.mu.Unlock()
	if tapped != 5 {
		t.Fatalf("the client's tap held %d acks, want 5", tapped)
	}
	if chunksBeforeRelease != 0 {
		t.Errorf("hop 0 had peeled %d chunks while every ack was still held", chunksBeforeRelease)
	}
	if got := client.m.streamRetransmits.Load(); got != 0 {
		t.Errorf("%d retransmits, want 0", got)
	}
}

// TestStreamResendsOnlyTheLostInstall loses one AnchorAck on its way home:
// that install alone is sent again, its holder — first writer wins, the same
// record is welcome twice — acks again, and the chunks wait behind the
// barrier until that fifth ack.
func TestStreamResendsOnlyTheLostInstall(t *testing.T) {
	var nodes []*Node
	var chunksAtAck []uint64 // hop 0's peel count as each ack reached the client
	acks := &frameTap{kind: kindAnchorAck, lose: func(nth int, _ []byte) bool {
		chunksAtAck = append(chunksAtAck, nodes[lossHop0].m.peelsForward.Load())
		return nth == 2
	}}
	nodes = startOverlayOn(t, lossNodes, map[transport.Addr]tcptransport.Codec{lossClient: acks})
	client := nodes[lossClient]

	payload := streamPayload(t, 3*64)
	echo, err := client.RoundTripStream(lossStreamConfig(lossTimeout), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatal("echo differs from payload")
	}
	if got := client.m.streamRetransmits.Load(); got != 1 {
		t.Errorf("%d retransmits, want 1", got)
	}
	if installed, held := anchorCounts(nodes); installed != 6 || held != 5 {
		t.Errorf("%d installs for %d anchors held, want 6 and 5: one install sent twice, stored once", installed, held)
	}
	if len(chunksAtAck) != 6 {
		t.Fatalf("%d acks reached the client, want 6", len(chunksAtAck))
	}
	for nth, chunks := range chunksAtAck {
		if chunks != 0 {
			t.Errorf("hop 0 had peeled %d chunks when ack %d arrived: a layer left ahead of its anchor's ack", chunks, nth)
		}
	}
}

// giveUpAfter is how long the window waits out a request that is never
// answered: streamRetries+1 timeouts, the first timeout long and each
// twice the last (Timeout is the window's initial and minimum RTO, and
// nothing answered in between resets the backoff).
func giveUpAfter(timeout time.Duration) time.Duration {
	return timeout * (1<<(streamRetries+1) - 1)
}

// TestStreamGivesUpOnAnInstall loses one hop's AnchorMsg every time: after
// streamRetries re-sends the call fails, promptly, naming the anchor and
// the node, and not one chunk was sent into the half-built tunnel.
func TestStreamGivesUpOnAnInstall(t *testing.T) {
	const timeout = lossTimeout
	fault := &frameTap{kind: kindAnchor, lose: func(int, []byte) bool { return true }}
	nodes := startOverlayOn(t, lossNodes, map[transport.Addr]tcptransport.Codec{lossHop1: fault})
	client := nodes[lossClient]

	start := time.Now()
	_, err := client.RoundTripStream(lossStreamConfig(timeout), streamPayload(t, 3*64))
	elapsed := time.Since(start)
	want := fmt.Sprintf("to node %d: no ack after %d attempts", lossHop1, streamRetries+1)
	if err == nil || !strings.Contains(err.Error(), "deploying anchor") || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want a deploying-anchor error naming %q", err, want)
	}
	if got := client.m.streamRetransmits.Load(); got != streamRetries {
		t.Errorf("%d retransmits, want %d", got, streamRetries)
	}
	if sent := fault.arrivals(0); len(sent) != streamRetries+1 {
		t.Errorf("the install was sent %d times, want %d", len(sent), streamRetries+1)
	}
	if installed, _ := anchorCounts(nodes); installed != 4 {
		t.Errorf("%d installs, want the other 4, once each", installed)
	}
	if got := nodes[lossHop0].m.peelsForward.Load(); got != 0 {
		t.Errorf("hop 0 peeled %d chunks of a stream whose tunnel never deployed", got)
	}
	if elapsed < (streamRetries+1)*timeout || elapsed > giveUpAfter(timeout)+time.Second {
		t.Errorf("gave up after %v; %d timeouts from %v, doubling, were due", elapsed, streamRetries+1, timeout)
	}
}

// TestStreamConfigRefused: a stream that cannot run is refused by the call,
// at once and before any anchor leaves the node, with an error naming the
// limit — not answered with zero bytes, a panic, or a chunk reported lost
// four timeouts later.
func TestStreamConfigRefused(t *testing.T) {
	nodes := startOverlay(t, lossNodes)
	client := nodes[lossClient]
	for _, c := range []struct {
		name    string
		edit    func(*StreamConfig)
		payload int
		want    string
	}{
		{"negative chunk size", func(c *StreamConfig) { c.ChunkSize = -1 }, 10, "chunk size -1"},
		{"negative chunk size, nothing to send", func(c *StreamConfig) { c.ChunkSize = -1 }, 0, "chunk size -1"},
		{"negative timeout", func(c *StreamConfig) { c.Timeout = -time.Second }, 10, "timeout -1s"},
		{"a chunk no frame holds", func(c *StreamConfig) { c.ChunkSize = wire.MaxFramePayload }, wire.MaxFramePayload,
			fmt.Sprintf("over the %d-byte frame limit", wire.MaxFramePayload)},
	} {
		cfg := lossStreamConfig(time.Minute)
		c.edit(&cfg)
		start := time.Now()
		echo, err := client.RoundTripStream(cfg, make([]byte, c.payload))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %d bytes and err = %v, want an error naming %q", c.name, len(echo), err, c.want)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Errorf("%s: refused after %v", c.name, elapsed)
		}
	}
	if installed, _ := anchorCounts(nodes); installed != 0 {
		t.Errorf("%d anchors were installed for streams that were refused", installed)
	}
}

// TestStreamGivesUpOnAChunk loses one chunk every time it is sent: after
// streamRetries re-sends the call fails, promptly, naming the chunk.
func TestStreamGivesUpOnAChunk(t *testing.T) {
	const (
		nChunks = 40
		lost    = 10
		timeout = lossTimeout
	)
	var doomed []byte
	fault := &frameTap{kind: kindForward, lose: func(nth int, frame []byte) bool {
		if nth == lost {
			doomed = bytes.Clone(frame)
		}
		return bytes.Equal(frame, doomed)
	}}
	nodes := startOverlayOn(t, lossNodes, map[transport.Addr]tcptransport.Codec{lossHop1: fault})
	client := nodes[lossClient]

	start := time.Now()
	_, err := client.RoundTripStream(lossStreamConfig(timeout), streamPayload(t, nChunks*64))
	elapsed := time.Since(start)
	want := fmt.Sprintf("chunk %d/%d lost after %d attempts", lost+1, nChunks, streamRetries+1)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want one naming %q", err, want)
	}
	if got := client.m.streamRetransmits.Load(); got != streamRetries {
		t.Errorf("%d retransmits, want %d", got, streamRetries)
	}
	if sent := fault.arrivals(lost); len(sent) != streamRetries+1 {
		t.Errorf("the chunk was sent %d times, want %d", len(sent), streamRetries+1)
	}
	if elapsed > giveUpAfter(timeout)+time.Second {
		t.Errorf("gave up after %v; %d timeouts from %v, doubling, were due", elapsed, streamRetries+1, timeout)
	}
}

// TestStreamPayloadSizes runs the window's boundary cases back to back on
// one overlay: nothing to send, less than a window, exactly one, one more.
func TestStreamPayloadSizes(t *testing.T) {
	nodes := startOverlay(t, lossNodes)
	client := nodes[lossClient]
	cfg := lossStreamConfig(0)
	for _, c := range []struct{ bytes, chunks int }{
		{0, 1},
		{1, 1},
		{cfg.ChunkSize, 1},
		{streamWindow * cfg.ChunkSize, streamWindow},
		{streamWindow*cfg.ChunkSize + 1, streamWindow + 1},
		{3*streamWindow*cfg.ChunkSize - 7, 3 * streamWindow},
	} {
		before := client.m.streamChunks.Load()
		payload := streamPayload(t, c.bytes)
		echo, err := client.RoundTripStream(cfg, payload)
		if err != nil {
			t.Fatalf("%d bytes: %v", c.bytes, err)
		}
		if !bytes.Equal(echo, payload) {
			t.Fatalf("%d bytes: echo differs from payload", c.bytes)
		}
		if got := client.m.streamChunks.Load() - before; got != uint64(c.chunks) {
			t.Errorf("%d bytes: %d chunks, want %d", c.bytes, got, c.chunks)
		}
	}
	if got := client.m.streamRetransmits.Load(); got != 0 {
		t.Errorf("%d retransmits on a lossless overlay", got)
	}
}

// TestStreamAllocsIndependentOfChunks: a stream's steady state allocates
// nothing on the heap — not at the initiator, a relay, the responder or a
// transport — so on a warm overlay a stream of 64 chunks allocates what one
// of 8 chunks does, to within half an allocation per extra chunk. Every
// node is in this process, so MemStats.Mallocs counts them all.
func TestStreamAllocsIndependentOfChunks(t *testing.T) {
	const chunk, short, long = 512, 8, 64
	nodes := startOverlay(t, lossNodes)
	client := nodes[lossClient]
	cfg := lossStreamConfig(0)
	cfg.ChunkSize = chunk
	mallocs := func(chunks int) uint64 {
		return roundTripMallocs(t, client, cfg, streamPayload(t, chunks*chunk))
	}
	mallocs(long) // warm: connections, window slots, free lists, write batches
	few, many := mallocs(short), mallocs(long)
	t.Logf("%d allocations for a stream of %d chunks, %d for %d", few, short, many, long)
	if perChunk := (float64(many) - float64(few)) / (long - short); perChunk >= 0.5 {
		t.Errorf("%d allocations for %d chunks, %d for %d: %.1f per extra chunk, want < 0.5", many, long, few, short, perChunk)
	}
}

// TestStreamScratchStaysBounded: the scratch a node keeps from message to
// message — the initiator's request buffer, window envelopes and reply free
// list, the responder's echo buffer and envelope, the exit's DataMsg — is
// let go of once a stream's chunks grow it past tcptransport.MaxKeptBuffer,
// on every node, so one stream of huge chunks does not pin their size.
func TestStreamScratchStaysBounded(t *testing.T) {
	nodes := startOverlay(t, lossNodes)
	client := nodes[lossClient]
	cfg := lossStreamConfig(0)
	cfg.ChunkSize = tcptransport.MaxKeptBuffer + 1000
	payload := streamPayload(t, 3*cfg.ChunkSize)
	echo, err := client.RoundTripStream(cfg, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatal("echo differs from payload")
	}
	for _, n := range nodes {
		kept := map[string][]byte{}
		n.streamMu.Lock()
		kept["request buffer"] = n.req
		for i := range n.initiator.slots {
			kept[fmt.Sprintf("window slot %d's envelope", i)] = n.initiator.slots[i].env.Sealed
		}
		n.streamMu.Unlock()
		for i := len(n.replyFree); i > 0; i-- {
			kept[fmt.Sprintf("reply free list entry %d", i)] = <-n.replyFree
		}
		done := make(chan struct{})
		n.tr.Schedule(0, transport.Func(func() { // handler state: read under the dispatch lock
			kept["echo buffer"] = n.echoBuf
			kept["echo envelope's onion"], kept["echo envelope's data"] = n.echo.Onion, n.echo.Data
			kept["exit DataMsg's payload"] = n.exit.Payload
			close(done)
		}))
		<-done
		for what, b := range kept {
			if cap(b) > tcptransport.MaxKeptBuffer {
				t.Errorf("node %d keeps its %s at %d bytes, over the %d-byte bound", n.Addr, what, cap(b), tcptransport.MaxKeptBuffer)
			}
		}
	}
}

// TestStreamIgnoresStaleEcho leaves in the notification channels what a
// previous stream's stragglers would: a well-formed echo for chunk 0, wrong
// bytes, sealed under that stream's key — accepting it would fail the next
// stream with an echo mismatch — and an ack for a hopid this call never
// minted, which must answer none of its installs.
func TestStreamIgnoresStaleEcho(t *testing.T) {
	nodes := startOverlay(t, lossNodes)
	client := nodes[lossClient]

	var oldKey crypt.Key
	oldKey[0] = 1
	w := wire.NewWriter(32)
	w.Uint64(7) // sid
	w.Uint32(0) // seq
	w.Byte(0)
	w.Blob([]byte("an earlier stream's chunk"))
	stale, err := crypt.NewSealer(oldKey).SealTo(nil, rand.Reader, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	client.replies <- stale
	client.acks <- NodeID(99)

	payload := streamPayload(t, 5*64)
	echo, err := client.RoundTripStream(lossStreamConfig(0), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatal("echo differs from payload")
	}
	if len(client.replies) != 0 || len(client.acks) != 0 {
		t.Errorf("%d replies and %d acks left unconsumed", len(client.replies), len(client.acks))
	}
	if got := client.m.anchorAcks.Load(); got != 5 {
		t.Errorf("%d acks arrived, want 5: the stale one stood in for an install's", got)
	}
	if got := client.m.streamRetransmits.Load(); got != 0 {
		t.Errorf("%d retransmits, want 0", got)
	}
}

// TestConcurrentStreamsDoNotStealEchoes calls RoundTripStream on one node
// from two goroutines. Acks and echoes arrive on per-node channels, so
// streams that overlapped would take each other's and each theft would
// cost a retransmit timeout; the node runs them one after the other
// instead, and neither ever retransmits.
func TestConcurrentStreamsDoNotStealEchoes(t *testing.T) {
	nodes := startOverlay(t, lossNodes)
	client := nodes[lossClient]
	streams := []struct {
		chunk   int
		payload []byte
	}{
		{64, streamPayload(t, 64*64)},
		{4096, streamPayload(t, 16*4096)},
	}
	var wg sync.WaitGroup
	for _, s := range streams {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := lossStreamConfig(200 * time.Millisecond)
			cfg.ChunkSize = s.chunk
			echo, err := client.RoundTripStream(cfg, s.payload)
			if err != nil {
				t.Errorf("stream of %d-byte chunks: %v", s.chunk, err)
			} else if !bytes.Equal(echo, s.payload) {
				t.Errorf("stream of %d-byte chunks: echo differs from payload", s.chunk)
			}
		}()
	}
	wg.Wait()
	if got := client.m.streamRetransmits.Load(); got != 0 {
		t.Errorf("tap_node_stream_retransmits_total = %d, want 0: a stream lost an ack or an echo to the other", got)
	}
}

// TestConsecutiveStreamsRepeatNoNonceOrHopID: a node draws its layer nonces
// from one stream and its anchors from one generator, both kept from call
// to call, so a second RoundTripStream on the node repeats no layer nonce
// and no hopid of the first, and the generator's counter t has advanced
// past both calls' anchors. Each hop sees its own layer's nonce and hopid
// on the envelope it receives, so tapping every hop sees all of them.
func TestConsecutiveStreamsRepeatNoNonceOrHopID(t *testing.T) {
	cfg := lossStreamConfig(0)
	codecs := map[transport.Addr]tcptransport.Codec{}
	taps := map[transport.Addr]*frameTap{}
	for kind, hops := range map[byte][]transport.Addr{kindForward: cfg.ForwardHops, kindReply: cfg.ReplyHops} {
		for _, a := range hops {
			taps[a] = &frameTap{kind: kind}
			codecs[a] = taps[a]
		}
	}
	nodes := startOverlayOn(t, lossNodes, codecs)
	client := nodes[lossClient]

	// draws returns the layer nonces and hopids in the frames each hop has
	// received since the last call.
	seen := map[transport.Addr]int{}
	draws := func() (nonces, hopIDs map[string]bool) {
		nonces, hopIDs = map[string]bool{}, map[string]bool{}
		for a, tap := range taps {
			tap.mu.Lock()
			frames := tap.seen[seen[a]:]
			seen[a] = len(tap.seen)
			tap.mu.Unlock()
			for _, frame := range frames {
				msg, err := Codec{}.Decode(tap.kind, frame)
				if err != nil {
					t.Fatal(err)
				}
				switch m := msg.(type) {
				case *core.Envelope:
					nonces[string(m.Sealed[:crypt.NonceSize])] = true
					hopIDs[string(m.HopID[:])] = true
				case *core.ReplyEnvelope:
					nonces[string(m.Onion[:crypt.NonceSize])] = true
					hopIDs[string(m.Target[:])] = true
				}
			}
		}
		return nonces, hopIDs
	}

	hops := len(cfg.ForwardHops) + len(cfg.ReplyHops)
	var firstNonces, firstHopIDs map[string]bool
	for call := 1; call <= 2; call++ {
		payload := streamPayload(t, 3*cfg.ChunkSize)
		echo, err := client.RoundTripStream(cfg, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(echo, payload) {
			t.Fatalf("call %d: echo differs from payload", call)
		}
		nonces, hopIDs := draws()
		if len(hopIDs) != hops {
			t.Fatalf("call %d: the hops saw %d hopids, want %d", call, len(hopIDs), hops)
		}
		if call == 1 {
			firstNonces, firstHopIDs = nonces, hopIDs
			continue
		}
		for nonce := range nonces {
			if firstNonces[nonce] {
				t.Errorf("the second call repeated the first's layer nonce %x", nonce)
			}
		}
		for hopID := range hopIDs {
			if firstHopIDs[hopID] {
				t.Errorf("the second call repeated the first's hopid %x", hopID)
			}
		}
	}
	client.streamMu.Lock()
	minted := client.gen.Counter()
	client.streamMu.Unlock()
	if minted != uint64(2*hops) {
		t.Errorf("the node's generator is at t = %d after two calls of %d anchors, want %d", minted, hops, 2*hops)
	}
}

// TestNonceStreamDrawsChaCha8: a node's nonce stream is ChaCha8's output
// under the node's 256-bit seed, not a math/rand source, whose 2^31 states
// a hop that sees the nonces could search to predict the node's later
// calls. math/rand's Read takes seven bytes from each 63-bit draw, low
// byte first.
func TestNonceStreamDrawsChaCha8(t *testing.T) {
	seed := [32]byte{0: 7, 31: 9}
	got := make([]byte, 4*crypt.NonceSize)
	newNonces(seed).Bytes(got)

	ref := randv2.NewChaCha8(seed)
	var want []byte
	for len(want) < len(got) {
		v := ref.Uint64() >> 1
		for range 7 {
			want = append(want, byte(v))
			v >>= 8
		}
	}
	if !bytes.Equal(got, want[:len(got)]) {
		t.Fatalf("the nonce stream drew %x, want ChaCha8's %x", got, want[:len(got)])
	}
}

// roundTripMallocs is what one RoundTripStream of payload costs the whole
// overlay on the heap — every node is in this process, so MemStats.Mallocs
// counts them all — the least of three calls, since a stray allocation
// elsewhere in the process can only add.
func roundTripMallocs(t testing.TB, client *Node, cfg StreamConfig, payload []byte) uint64 {
	t.Helper()
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		echo, err := client.RoundTripStream(cfg, payload)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(echo, payload) {
			t.Fatal("echo differs from payload")
		}
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestRoundTripAllocsPerCall pins what a warm overlay allocates for one
// tcp_small-shaped call, 64 chunks of 64 B, over all seven nodes: twelve
// key schedules — the five hops' and the echo key's at the initiator, each
// relay's one for its anchor, the responder's for the echo key — at two
// objects each, the five cells the relays' anchors adopt, and the echo
// returned. Measured 30.
func TestRoundTripAllocsPerCall(t *testing.T) {
	const maxAllocs = 32

	nodes := startOverlay(t, lossNodes)
	client := nodes[lossClient]
	cfg := lossStreamConfig(0)
	payload := streamPayload(t, 64*cfg.ChunkSize)
	roundTripMallocs(t, client, cfg, payload) // warm: connections, window slots, free lists, write batches
	if got := roundTripMallocs(t, client, cfg, payload); got > maxAllocs {
		t.Errorf("%d allocations per call, want <= %d", got, maxAllocs)
	}
}

// BenchmarkRoundTripStream is the deployed round trip tapload's tcp_small
// times — 64 chunks of 64 B through three forward and two reply hops to a
// responder — on a warm in-process overlay over loopback TCP.
func BenchmarkRoundTripStream(b *testing.B) {
	nodes := startOverlay(b, lossNodes)
	client := nodes[lossClient]
	cfg := lossStreamConfig(0)
	payload := streamPayload(b, 64*cfg.ChunkSize)
	if _, err := client.RoundTripStream(cfg, payload); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		echo, err := client.RoundTripStream(cfg, payload)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(echo, payload) {
			b.Fatal("echo differs from payload")
		}
	}
}
