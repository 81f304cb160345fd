package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 5000)}
	for _, p := range payloads {
		b := AppendFrame(nil, 7, p)
		kind, got, rest, err := ParseFrame(b)
		if err != nil {
			t.Fatalf("ParseFrame(%d bytes): %v", len(p), err)
		}
		if kind != 7 || !bytes.Equal(got, p) || len(rest) != 0 {
			t.Fatalf("round trip mismatch: kind=%d len=%d rest=%d", kind, len(got), len(rest))
		}

		var buf bytes.Buffer
		if err := WriteFrame(&buf, 9, p); err != nil {
			t.Fatal(err)
		}
		kind, got, err = ReadFrame(&buf, nil)
		if err != nil {
			t.Fatalf("ReadFrame(%d bytes): %v", len(p), err)
		}
		if kind != 9 || !bytes.Equal(got, p) {
			t.Fatalf("stream round trip mismatch: kind=%d len=%d", kind, len(got))
		}
	}
}

func TestFrameChained(t *testing.T) {
	b := AppendFrame(nil, 1, []byte("first"))
	b = AppendFrame(b, 2, []byte("second"))
	k1, p1, rest, err := ParseFrame(b)
	if err != nil || k1 != 1 || string(p1) != "first" {
		t.Fatalf("first frame: %v %d %q", err, k1, p1)
	}
	k2, p2, rest, err := ParseFrame(rest)
	if err != nil || k2 != 2 || string(p2) != "second" || len(rest) != 0 {
		t.Fatalf("second frame: %v %d %q rest=%d", err, k2, p2, len(rest))
	}
}

func TestFrameReadReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 64)
	_, payload, err := ReadFrame(&buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &payload[0] != &scratch[0] {
		t.Fatalf("payload did not reuse the provided buffer")
	}
}

func TestFrameRejectsBadHeader(t *testing.T) {
	good := AppendFrame(nil, 1, []byte("ok"))

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	if _, _, _, err := ParseFrame(badMagic); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}

	badVer := append([]byte(nil), good...)
	badVer[2] = 99
	if _, _, _, err := ParseFrame(badVer); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: got %v", err)
	}

	oversize := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(oversize[4:], MaxFramePayload+1)
	if _, _, _, err := ParseFrame(oversize); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("oversize length: got %v", err)
	}
	// The stream reader must reject the same header before reading any
	// payload byte — feed only the 8-byte header, so an implementation
	// that tried to allocate-and-read first would block or fail
	// differently.
	if _, _, err := ReadFrame(bytes.NewReader(oversize[:FrameHeaderSize]), nil); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("oversize length (stream): got %v", err)
	}

	if _, _, _, err := ParseFrame(good[:5]); !errors.Is(err, ErrShort) {
		t.Fatalf("truncated header: got %v", err)
	}
	if _, _, _, err := ParseFrame(good[:len(good)-1]); !errors.Is(err, ErrShort) {
		t.Fatalf("truncated payload: got %v", err)
	}
}

func TestFrameReadTruncatedStream(t *testing.T) {
	full := AppendFrame(nil, 5, []byte("payload"))
	// Cut mid-header.
	if _, _, err := ReadFrame(bytes.NewReader(full[:4]), nil); err == nil {
		t.Fatal("mid-header cut: want error")
	}
	// Cut mid-payload.
	if _, _, err := ReadFrame(bytes.NewReader(full[:FrameHeaderSize+3]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatal("mid-payload cut: want ErrUnexpectedEOF")
	}
}

// countingWriter records how a frame reached it.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameIsOneWrite: header and payload leave in a single Write —
// on a socket, one syscall and one segment, not two — and the bytes are
// AppendFrame's.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, p := range [][]byte{nil, []byte("board request"), bytes.Repeat([]byte{7}, 70_000)} {
		var w countingWriter
		if err := WriteFrame(&w, 4, p); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Fatalf("%d-byte payload took %d writes, want 1", len(p), w.writes)
		}
		if !bytes.Equal(w.Bytes(), AppendFrame(nil, 4, p)) {
			t.Fatalf("%d-byte payload: WriteFrame and AppendFrame disagree", len(p))
		}
	}
	var w countingWriter
	if err := WriteFrame(&w, 4, make([]byte, MaxFramePayload+1)); !errors.Is(err, ErrFrameSize) || w.writes != 0 {
		t.Fatalf("oversized payload: err %v after %d writes", err, w.writes)
	}
}

// TestPutFrameHeaderAndFrameSize cover the two halves a caller that
// frames in place and reads in place uses directly: the header patched
// into a buffer is the one AppendFrame writes, and FrameSize reads back
// the whole frame's length from any prefix that holds the header.
func TestPutFrameHeaderAndFrameSize(t *testing.T) {
	payload := []byte("encoded straight behind the reserved header")
	buf := append(make([]byte, FrameHeaderSize), payload...)
	if err := PutFrameHeader(buf, 6, len(payload)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, AppendFrame(nil, 6, payload)) {
		t.Fatal("a patched-in header differs from AppendFrame's")
	}
	if err := PutFrameHeader(buf, 6, MaxFramePayload+1); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("oversized length: got %v", err)
	}
	for _, have := range []int{FrameHeaderSize, FrameHeaderSize + 3, len(buf)} {
		if size, err := FrameSize(buf[:have]); err != nil || size != len(buf) {
			t.Fatalf("FrameSize of a %d-byte prefix = %d, %v; want %d", have, size, err, len(buf))
		}
	}
	if _, err := FrameSize(buf[:FrameHeaderSize-1]); !errors.Is(err, ErrShort) {
		t.Fatalf("short header: got %v", err)
	}
	buf[0] = 'X'
	if _, err := FrameSize(buf); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
}
