package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// This file is the stream framing for the real transport path. The
// simulator never marshals (messages report SizeBytes and ride as Go
// values), but once messages cross a TCP connection every frame needs an
// unambiguous boundary and a cheap validity check before any payload is
// trusted. A frame is:
//
//	offset  size  field
//	0       2     magic 0x54 0x50 ("TP")
//	2       1     version (FrameVersion)
//	3       1     kind — application-defined message discriminator
//	4       4     payload length, big-endian uint32
//	8       n     payload
//
// The length field is guarded by MaxFramePayload before any allocation or
// read, so a corrupt or hostile header cannot make a reader allocate or
// block for gigabytes. Magic and version are checked first: a peer
// speaking a different protocol (or a desynchronized stream) fails fast
// with a diagnosable error instead of a garbage length.

// Frame header constants.
const (
	// FrameMagic0 and FrameMagic1 open every frame ("TP").
	FrameMagic0 = 0x54
	FrameMagic1 = 0x50
	// FrameVersion is the current framing version. Readers reject
	// anything else; bump it when the header layout changes.
	FrameVersion = 1
	// FrameHeaderSize is the fixed prefix length before the payload.
	FrameHeaderSize = 8
	// MaxFramePayload bounds a single frame's payload (16 MiB). Tunnel
	// envelopes are a few KiB; the bound exists so a corrupted or
	// malicious length prefix cannot drive allocation.
	MaxFramePayload = 16 << 20
)

// Framing errors.
var (
	ErrBadMagic   = fmt.Errorf("wire: bad frame magic")
	ErrBadVersion = fmt.Errorf("wire: unsupported frame version")
	ErrFrameSize  = fmt.Errorf("wire: frame payload exceeds limit")
)

// PutFrameHeader writes the header of a kind frame carrying an n-byte
// payload into hdr[:FrameHeaderSize]. It is the one place that knows the
// header layout and applies the MaxFramePayload guard on the sending
// side: AppendFrame, WriteFrame and the transport's in-place framing all
// go through it.
func PutFrameHeader(hdr []byte, kind byte, n int) error {
	if n > MaxFramePayload {
		return fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	_ = hdr[FrameHeaderSize-1]
	hdr[0], hdr[1], hdr[2], hdr[3] = FrameMagic0, FrameMagic1, FrameVersion, kind
	binary.BigEndian.PutUint32(hdr[4:], uint32(n))
	return nil
}

// appendFrame appends a framed payload to dst, growing it at most once.
// The size guard runs before anything is allocated.
func appendFrame(dst []byte, kind byte, payload []byte) ([]byte, error) {
	var hdr [FrameHeaderSize]byte
	if err := PutFrameHeader(hdr[:], kind, len(payload)); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, FrameHeaderSize+len(payload))
	return append(append(dst, hdr[:]...), payload...), nil
}

// AppendFrame appends a framed payload to dst and returns the extended
// slice. It panics if payload exceeds MaxFramePayload — senders construct
// their own payloads, so an oversized one is a programming error, not a
// peer's misbehavior.
func AppendFrame(dst []byte, kind byte, payload []byte) []byte {
	out, err := appendFrame(dst, kind, payload)
	if err != nil {
		panic(err)
	}
	return out
}

// WriteFrame writes one framed payload to w in a single Write, so a frame
// costs one syscall and leaves as one segment where it fits.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	frame, err := appendFrame(nil, kind, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// checkHeader validates a frame header and returns (kind, payload length).
func checkHeader(hdr []byte) (byte, int, error) {
	if hdr[0] != FrameMagic0 || hdr[1] != FrameMagic1 {
		return 0, 0, fmt.Errorf("%w: %02x %02x", ErrBadMagic, hdr[0], hdr[1])
	}
	if hdr[2] != FrameVersion {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxFramePayload {
		return 0, 0, fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	return hdr[3], int(n), nil
}

// ReadFrame reads one frame from r. buf, when non-nil and large enough,
// backs the returned payload so steady-state readers do not allocate per
// frame; the returned slice aliases it. The header is validated — magic,
// version, and the MaxFramePayload guard — before any payload byte is
// read, so a hostile length prefix never drives allocation.
func ReadFrame(r io.Reader, buf []byte) (kind byte, payload []byte, err error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	kind, n, err := checkHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if n <= cap(buf) {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		// A truncated payload after a valid header: the stream died
		// mid-frame. Normalize EOF so callers see an unexpected cut.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return kind, payload, nil
}

// ParseFrame decodes one frame from the front of b, returning the kind,
// the payload (aliasing b), and the remainder after the frame. It is the
// allocation-free, slice-based twin of ReadFrame, used where the bytes
// are already in memory: the transport walks its read buffer with it.
// ErrShort means b ends before the frame does; the header, if complete,
// has been validated by then.
func ParseFrame(b []byte) (kind byte, payload []byte, rest []byte, err error) {
	if len(b) < FrameHeaderSize {
		return 0, nil, nil, ErrShort
	}
	kind, n, err := checkHeader(b[:FrameHeaderSize])
	if err != nil {
		return 0, nil, nil, err
	}
	if len(b)-FrameHeaderSize < n {
		return 0, nil, nil, ErrShort
	}
	return kind, b[FrameHeaderSize : FrameHeaderSize+n], b[FrameHeaderSize+n:], nil
}

// FrameSize returns the full length, header included, of the frame whose
// header opens b, validated as ParseFrame validates it. A reader holding
// part of a frame learns from it how many bytes the rest will take
// before committing memory to them. ErrShort means b does not yet hold a
// whole header.
func FrameSize(b []byte) (int, error) {
	if len(b) < FrameHeaderSize {
		return 0, ErrShort
	}
	_, n, err := checkHeader(b[:FrameHeaderSize])
	if err != nil {
		return 0, err
	}
	return FrameHeaderSize + n, nil
}
