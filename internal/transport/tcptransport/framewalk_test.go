package tcptransport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"tap/internal/transport"
	"tap/internal/wire"
)

// rawMsg and rawCodec pass any frame kind through untouched, so a
// delivery shows exactly what the reader made of a frame. One kind is
// undecodable, for the decode-error path.
type rawMsg struct {
	kind byte
	body []byte
}

func (m rawMsg) SizeBytes() int { return len(m.body) }

const undecodableKind = 0xEE

type rawCodec struct{}

func (rawCodec) AppendEncode(dst []byte, msg transport.Message) (byte, []byte, error) {
	m := msg.(rawMsg)
	return m.kind, append(dst, m.body...), nil
}

func (c rawCodec) NewDecoder() Decoder { return c }

func (rawCodec) Decode(kind byte, payload []byte) (transport.Message, error) {
	if kind == undecodableKind {
		return nil, fmt.Errorf("undecodable kind")
	}
	return rawMsg{kind: kind, body: bytes.Clone(payload)}, nil
}

// delivered is one frame as the handler saw it.
type delivered struct {
	kind     byte
	src, dst transport.Addr
	body     string
}

// walkResult is everything observable about one connection's worth of
// bytes: what was delivered, in order, and what the counters added.
type walkResult struct {
	msgs                           []delivered
	frames, bytes, runts, decodeEs uint64
}

const walkDst transport.Addr = 9

// testFrame is one well-formed transport frame addressed to walkDst.
func testFrame(kind byte, src transport.Addr, body []byte) []byte {
	payload := binary.BigEndian.AppendUint64(nil, uint64(int64(src)))
	payload = binary.BigEndian.AppendUint64(payload, uint64(int64(walkDst)))
	return wire.AppendFrame(nil, kind, append(payload, body...))
}

// referenceWalk is the reader this package had before it parsed in place:
// one wire.ReadFrame per frame, the same accounting, the same reasons to
// stop. The in-place walker must be indistinguishable from it.
func referenceWalk(stream []byte) walkResult {
	var res walkResult
	r := bytes.NewReader(stream)
	buf := make([]byte, readBufSize)
	for {
		kind, payload, err := wire.ReadFrame(r, buf)
		if err != nil {
			return res
		}
		res.frames++
		res.bytes += uint64(wire.FrameHeaderSize + len(payload))
		if len(payload) < addrPrefixSize {
			res.runts++
			return res
		}
		if kind == undecodableKind {
			res.decodeEs++
			continue
		}
		res.msgs = append(res.msgs, delivered{
			kind: kind,
			src:  transport.Addr(int64(binary.BigEndian.Uint64(payload[0:8]))),
			dst:  transport.Addr(int64(binary.BigEndian.Uint64(payload[8:16]))),
			body: string(payload[addrPrefixSize:]),
		})
	}
}

// walker runs readLoop over in-memory connections on one transport.
type walker struct {
	tr   *Transport
	msgs []delivered // appended under the dispatch lock, read after sync
}

func newWalker(t testing.TB) *walker {
	w := &walker{tr: New(Config{Codec: rawCodec{}})}
	t.Cleanup(w.tr.Close)
	w.tr.Attach(walkDst, transport.HandlerFunc(func(from transport.Addr, msg transport.Message) {
		m := msg.(rawMsg)
		w.msgs = append(w.msgs, delivered{kind: m.kind, src: from, dst: walkDst, body: string(m.body)})
	}))
	return w
}

// walk feeds stream to a fresh readLoop in writes of the given sizes
// (the remainder in one last write), closes the connection, and reports
// what the loop did with it.
func (w *walker) walk(t testing.TB, stream []byte, writes ...int) walkResult {
	t.Helper()
	m := w.tr.m
	before := walkResult{frames: m.framesIn.Load(), bytes: m.bytesIn.Load(), runts: m.runtFrames.Load(), decodeEs: m.decodeErrs.Load()}
	closed := m.connClosesIn.Load()
	w.msgs = nil

	client, server := net.Pipe()
	w.tr.wg.Add(1)
	go w.tr.readLoop(server)
	rest := stream
	for _, n := range append(writes, len(stream)) {
		if n > len(rest) {
			n = len(rest)
		}
		if n == 0 {
			continue
		}
		// A write fails once the loop has hung up on a bad frame; what
		// the loop made of the bytes it took is the result either way.
		if _, err := client.Write(rest[:n]); err != nil {
			break
		}
		rest = rest[n:]
	}
	client.Close()
	for deadline := time.Now().Add(5 * time.Second); m.connClosesIn.Load() == closed; {
		if time.Now().After(deadline) {
			t.Fatal("readLoop did not exit after its connection closed")
		}
		time.Sleep(50 * time.Microsecond)
	}
	// The reader delivered every frame under the dispatch lock before it
	// exited; an event run now takes the lock after it.
	done := make(chan struct{})
	w.tr.enqueue(transport.Func(func() { close(done) }))
	<-done
	return walkResult{
		msgs:     w.msgs,
		frames:   m.framesIn.Load() - before.frames,
		bytes:    m.bytesIn.Load() - before.bytes,
		runts:    m.runtFrames.Load() - before.runts,
		decodeEs: m.decodeErrs.Load() - before.decodeEs,
	}
}

// check walks stream and compares against the reference.
func (w *walker) check(t testing.TB, stream []byte, writes ...int) {
	t.Helper()
	got, want := w.walk(t, stream, writes...), referenceWalk(stream)
	if got.frames != want.frames || got.bytes != want.bytes || got.runts != want.runts || got.decodeEs != want.decodeEs {
		t.Fatalf("writes %v: counters differ from a ReadFrame loop: frames %d/%d bytes %d/%d runts %d/%d decode errors %d/%d",
			writes, got.frames, want.frames, got.bytes, want.bytes, got.runts, want.runts, got.decodeEs, want.decodeEs)
	}
	if !reflect.DeepEqual(got.msgs, want.msgs) {
		t.Fatalf("writes %v: delivered %d messages, a ReadFrame loop yields %d; first difference at %d",
			writes, len(got.msgs), len(want.msgs), firstDifference(got.msgs, want.msgs))
	}
}

func firstDifference(a, b []delivered) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// hostileHeaders loads internal/wire's committed FuzzFrame corpus: the
// truncated, oversized, bad-magic and bad-version headers the frame
// layer is fuzzed from.
func hostileHeaders(t testing.TB) map[string][]byte {
	t.Helper()
	dir := filepath.Join("..", "..", "wire", "testdata", "fuzz", "FuzzFrame")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("corpus file %s: %v", e.Name(), err)
		}
		out[e.Name()] = []byte(s)
	}
	for _, name := range []string{"bad-magic", "bad-version", "oversized-length", "truncated-header", "truncated-payload"} {
		if out[name] == nil {
			t.Fatalf("wire corpus has no %q entry", name)
		}
	}
	return out
}

// smallStream is a handful of frames of every shape the loop treats
// differently and that fits many times over in one read.
func smallStream() []byte {
	var s []byte
	s = append(s, testFrame(1, 2, []byte("first"))...)
	s = append(s, testFrame(7, 3, nil)...) // addresses only
	s = append(s, testFrame(undecodableKind, 2, []byte("skipped, not fatal"))...)
	s = append(s, testFrame(1, -1, bytes.Repeat([]byte("x"), 300))...)
	s = append(s, testFrame(255, 4, []byte("last"))...)
	return s
}

// TestFrameWalkMatchesReadFrame is the differential test of the in-place
// reader: whatever way a byte stream is cut into reads, the delivered
// (kind, src, dst, payload) sequence and the frame and byte counters are
// those of a wire.ReadFrame loop over the same bytes.
func TestFrameWalkMatchesReadFrame(t *testing.T) {
	w := newWalker(t)
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 31)
		}
		return b
	}
	const overhead = wire.FrameHeaderSize + addrPrefixSize

	t.Run("every byte boundary", func(t *testing.T) {
		s := smallStream()
		for cut := 1; cut < len(s); cut++ {
			w.check(t, s, cut)
		}
	})
	t.Run("one byte per read", func(t *testing.T) {
		s := smallStream()
		ones := make([]int, len(s))
		for i := range ones {
			ones[i] = 1
		}
		w.check(t, s, ones...)
	})
	t.Run("many frames per read", func(t *testing.T) {
		// 400 frames, 120 KiB: every read returns dozens of whole frames
		// and ends inside one, which must be carried to the front.
		var s []byte
		for i := 0; i < 400; i++ {
			s = append(s, testFrame(byte(i%200), transport.Addr(i), pattern(250+i%100))...)
		}
		w.check(t, s)
		w.check(t, s, 100, 70_000, 3)
	})
	t.Run("frame exactly filling the buffer", func(t *testing.T) {
		s := testFrame(1, 2, []byte("before"))
		s = append(s, testFrame(2, 3, pattern(readBufSize-overhead))...)
		s = append(s, testFrame(3, 4, []byte("after"))...)
		head := len(testFrame(1, 2, []byte("before")))
		w.check(t, s)
		w.check(t, s, head)                           // the big frame starts a read
		w.check(t, s, head+wire.FrameHeaderSize)      // its header alone arrives first
		w.check(t, s, head+readBufSize-1)             // all but its last byte
		w.check(t, s, head+5, readBufSize-5, 1, 1, 1) // ends flush with a read
	})
	t.Run("frame one byte larger than the buffer", func(t *testing.T) {
		s := testFrame(1, 2, []byte("before"))
		s = append(s, testFrame(2, 3, pattern(readBufSize+1-overhead))...)
		s = append(s, testFrame(3, 4, []byte("after"))...)
		s = append(s, testFrame(4, 5, pattern(3*readBufSize))...) // and one far larger
		s = append(s, testFrame(5, 6, []byte("last"))...)
		head := len(testFrame(1, 2, []byte("before")))
		w.check(t, s)
		w.check(t, s, head)
		w.check(t, s, head+3)                        // mid-header
		w.check(t, s, head+wire.FrameHeaderSize)     // header only
		w.check(t, s, head+readBufSize)              // the buffer fills exactly, one byte to come
		w.check(t, s, 1, head+readBufSize-2, 1, 1)   // the last bytes trickle in
		w.check(t, s, head+readBufSize+1+overhead/2) // cut inside the frame after it
	})
	t.Run("hostile header after a valid frame", func(t *testing.T) {
		for name, hostile := range hostileHeaders(t) {
			s := testFrame(1, 2, []byte("valid"))
			valid := len(s)
			s = append(s, hostile...)
			s = append(s, testFrame(1, 2, []byte("never delivered after a bad header"))...)
			for _, writes := range [][]int{nil, {valid}, {valid + 4}, {valid + wire.FrameHeaderSize}, {3, valid}} {
				t.Run(name, func(t *testing.T) { w.check(t, s, writes...) })
			}
		}
	})
	t.Run("runt frame hangs up", func(t *testing.T) {
		s := testFrame(1, 2, []byte("valid"))
		s = append(s, wire.AppendFrame(nil, 1, []byte("too short"))...)
		s = append(s, testFrame(1, 2, []byte("never delivered"))...)
		got := w.walk(t, s)
		if got.runts != 1 || len(got.msgs) != 1 {
			t.Fatalf("%d runts, %d deliveries; want 1 and 1", got.runts, len(got.msgs))
		}
		w.check(t, s)
		w.check(t, s, len(s)-3)
	})
}

// TestHostileLengthAllocatesNothing: a header claiming more than
// MaxFramePayload is refused before it sizes anything. The only
// allocation of note while the loop handles it is the loop's own buffer.
func TestHostileLengthAllocatesNothing(t *testing.T) {
	w := newWalker(t)
	s := testFrame(1, 2, []byte("valid"))
	s = append(s, hostileHeaders(t)["oversized-length"]...)
	s = append(s, make([]byte, 1024)...) // and some of the payload it claims

	w.walk(t, s) // warm up: pipe, goroutine and timer machinery
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := w.walk(t, s)
	runtime.ReadMemStats(&after)
	if len(got.msgs) != 1 || got.frames != 1 {
		t.Fatalf("delivered %d messages in %d frames, want the one valid frame", len(got.msgs), got.frames)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2*readBufSize {
		t.Fatalf("%d bytes allocated handling a hostile length: more than the loop's %d-byte buffer", grew, readBufSize)
	}
}

// FuzzFrameWalk holds the in-place reader to the ReadFrame loop on
// arbitrary bytes cut at an arbitrary point.
func FuzzFrameWalk(f *testing.F) {
	f.Add(smallStream(), uint16(11))
	f.Add(append(testFrame(1, 2, []byte("valid")), 'T', 'P', 1, 1, 0xff, 0xff, 0xff, 0xff), uint16(40))
	f.Add(append(testFrame(1, 2, []byte("valid")), 'X', 'X', 1, 1, 0, 0, 0, 0), uint16(3))
	f.Add(append(testFrame(1, 2, nil), 'T', 'P', 1, 3, 0, 0, 0, 30, 'c'), uint16(25))
	f.Add(wire.AppendFrame(nil, 1, []byte("runt")), uint16(0))
	f.Fuzz(func(t *testing.T, stream []byte, cut uint16) {
		// A header may claim up to MaxFramePayload and have the reader
		// allocate it, by design; keep such inputs from slowing the fuzzer
		// to a crawl without excluding the oversize path (> 64 KiB).
		for rest := stream; len(rest) >= wire.FrameHeaderSize; {
			size, err := wire.FrameSize(rest)
			if err != nil || size > len(rest) {
				if err == nil && size > 4*readBufSize {
					t.Skip()
				}
				break
			}
			rest = rest[size:]
		}
		w := newWalker(t)
		w.check(t, stream, int(cut))
	})
}
