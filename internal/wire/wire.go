// Package wire is the binary codec for TAP's message formats: tunnel
// layers, reply onions, anchor deployment instructions, and application
// payloads.
//
// Formats are hand-rolled rather than gob/JSON because layer contents are
// encrypted and re-framed at every hop; a compact, deterministic encoding
// keeps ciphertext sizes — and therefore the simulated transfer times of
// Figure 6 — meaningful. Integers are big-endian fixed width; byte strings
// are length-prefixed with a uvarint.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tap/internal/id"
)

// ErrShort reports a truncated buffer.
var ErrShort = errors.New("wire: buffer too short")

// ErrOversize reports a length prefix exceeding the remaining buffer, a
// sign of corruption.
var ErrOversize = errors.New("wire: length prefix exceeds buffer")

// ErrBlobLen reports a fixed-length field whose blob is not that length.
var ErrBlobLen = errors.New("wire: blob is not its field's length")

// Writer accumulates an encoded message.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// NewWriterOn returns a writer that appends to dst, for encoding straight
// into a buffer the caller has already laid out (a frame with its header
// reserved). Bytes returns dst extended; dst's own bytes are untouched.
func NewWriterOn(dst []byte) *Writer { return &Writer{buf: dst} }

// Bytes returns the encoded buffer. The writer must not be reused after.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the current encoded length.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Uint32 appends a fixed-width big-endian uint32.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a fixed-width big-endian uint64.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Int64 appends a fixed-width big-endian int64 (two's complement).
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// ID appends an identifier as 20 raw bytes.
func (w *Writer) ID(v id.ID) { w.buf = append(w.buf, v[:]...) }

// Blob appends a uvarint length prefix followed by b.
func (w *Writer) Blob(b []byte) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends s as a Blob.
func (w *Writer) String(s string) { w.Blob([]byte(s)) }

// Reader decodes a message produced by Writer. Methods return an error
// once and then keep failing, so call sites may decode a whole struct and
// check Err once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for decoding. The reader does not copy buf; Blob
// results alias it.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns an error unless the buffer was fully and cleanly consumed.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrShort)
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Uint32 reads a fixed-width big-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 reads a fixed-width big-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 reads a fixed-width big-endian int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// ID reads a 20-byte identifier.
func (r *Reader) ID() id.ID {
	b := r.take(id.Size)
	var out id.ID
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// Blob reads a length-prefixed byte string. The result aliases the input
// buffer.
func (r *Reader) Blob() []byte {
	if r.err != nil {
		return nil
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrShort)
		return nil
	}
	if v > uint64(len(r.buf)-r.off-n) {
		r.fail(ErrOversize)
		return nil
	}
	r.off += n
	return r.take(int(v))
}

// FixedBlob reads a blob into dst, failing with ErrBlobLen unless it was
// exactly dst's length in its one-byte-prefix form (fixed fields are under
// 128 bytes): a fixed field — a key, a hash — decodes from one encoding
// only, and is never a short one zero-padded or a long one truncated.
func (r *Reader) FixedBlob(dst []byte) {
	before := r.Remaining()
	b := r.Blob()
	if r.err == nil && (len(b) != len(dst) || before-r.Remaining() != 1+len(dst)) {
		r.fail(ErrBlobLen)
	}
	copy(dst, b)
}

// String reads a Blob as a string (copying).
func (r *Reader) String() string { return string(r.Blob()) }
