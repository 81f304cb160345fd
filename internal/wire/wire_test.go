package wire

import (
	"bytes"
	"errors"
	"testing"

	"tap/internal/id"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Byte(7)
	w.Uint32(0xdeadbeef)
	w.Uint64(1 << 40)
	w.Int64(-12345)
	nid := id.HashString("n")
	w.ID(nid)
	w.Blob([]byte("payload"))
	w.String("hello")

	r := NewReader(w.Bytes())
	if got := r.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Fatalf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 1<<40 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := r.Int64(); got != -12345 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := r.ID(); got != nid {
		t.Fatalf("ID = %s", got)
	}
	if got := r.Blob(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Blob = %q", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyBlob(t *testing.T) {
	w := NewWriter(8)
	w.Blob(nil)
	r := NewReader(w.Bytes())
	if got := r.Blob(); len(got) != 0 {
		t.Fatalf("empty blob read as %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestShortBuffer(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Uint64()
	if r.Err() != ErrShort {
		t.Fatalf("err = %v, want ErrShort", r.Err())
	}
	// Subsequent reads keep failing without panicking.
	r.ID()
	r.Blob()
	if r.Err() != ErrShort {
		t.Fatalf("sticky error lost")
	}
}

func TestOversizeBlobPrefix(t *testing.T) {
	w := NewWriter(8)
	w.Blob([]byte("abc"))
	buf := w.Bytes()
	buf[0] = 200 // claim 200 bytes follow
	r := NewReader(buf)
	r.Blob()
	if r.Err() != ErrOversize {
		t.Fatalf("err = %v, want ErrOversize", r.Err())
	}
}

func TestDoneDetectsTrailing(t *testing.T) {
	w := NewWriter(8)
	w.Byte(1)
	w.Byte(2)
	r := NewReader(w.Bytes())
	r.Byte()
	if err := r.Done(); err == nil {
		t.Fatalf("trailing byte not detected")
	}
}

func TestRemaining(t *testing.T) {
	w := NewWriter(8)
	w.Uint32(1)
	r := NewReader(w.Bytes())
	if r.Remaining() != 4 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	r.Uint32()
	if r.Remaining() != 0 {
		t.Fatalf("Remaining after read = %d", r.Remaining())
	}
}

func TestZeroValueReads(t *testing.T) {
	// After an error, value reads return zero values.
	r := NewReader(nil)
	if r.Byte() != 0 || r.Uint32() != 0 || r.Uint64() != 0 || !r.ID().IsZero() || r.Blob() != nil {
		t.Fatalf("post-error reads not zero-valued")
	}
}

// TestFixedBlobOneEncodingOnly: a fixed field decodes only from a blob of
// exactly its length behind a one-byte prefix. A short blob, a long one,
// and the right length spelled as a two-byte varint are each ErrBlobLen.
func TestFixedBlobOneEncodingOnly(t *testing.T) {
	key := bytes.Repeat([]byte{0xab}, 32)
	w := NewWriter(40)
	w.Blob(key)
	var dst [32]byte
	r := NewReader(w.Bytes())
	r.FixedBlob(dst[:])
	if err := r.Done(); err != nil || dst != [32]byte(key) {
		t.Fatalf("exact blob: err %v, dst %x", err, dst)
	}

	nonMinimal := append([]byte{0x80 | 32, 0x00}, key...)
	for name, enc := range map[string][]byte{
		"short":       append([]byte{31}, key[:31]...),
		"long":        append([]byte{33}, append(bytes.Clone(key), 0)...),
		"non-minimal": nonMinimal,
	} {
		var got [32]byte
		r := NewReader(enc)
		r.FixedBlob(got[:])
		if !errors.Is(r.Err(), ErrBlobLen) {
			t.Errorf("%s: err = %v, want ErrBlobLen", name, r.Err())
		}
	}
}

// TestNewWriterOnKeepsTheReservedBytes: a writer on a caller's buffer
// appends after what the buffer already holds and leaves those bytes as
// they were, so a frame header reserved ahead of the body survives.
func TestNewWriterOnKeepsTheReservedBytes(t *testing.T) {
	header := []byte{1, 2, 3, 4}
	dst := make([]byte, len(header), 64)
	copy(dst, header)
	w := NewWriterOn(dst)
	w.Uint32(0xcafef00d)
	w.Blob([]byte("body"))
	out := w.Bytes()
	if !bytes.Equal(out[:len(header)], header) || &out[0] != &dst[0] {
		t.Fatalf("reserved bytes moved or changed: % x", out[:len(header)])
	}
	if w.Len() != len(header)+4+1+4 {
		t.Fatalf("Len = %d, want %d", w.Len(), len(header)+9)
	}
	r := NewReader(out[len(header):])
	if r.Uint32() != 0xcafef00d || string(r.Blob()) != "body" || r.Done() != nil {
		t.Fatalf("body did not decode: %v", r.Err())
	}
}
