package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"io"
)

// Sealer is the cached key schedule for one layer key: the AES-128-GCM
// key is derived once, and the AES round keys and GHASH tables are
// expanded once. An anchor record carries one in a shared cell
// (internal/tha), so per-message work drops to one AEAD pass.
//
// A Sealer is safe for concurrent use: it holds only the expanded key,
// which no call writes.
type Sealer struct {
	aead cipher.AEAD // AES-128-GCM under layerKey, nonceSize-byte nonces, no additional data
}

// NewSealer derives the key schedule for k. The returned Sealer makes
// Seal/Open-equivalent operations reuse that work for the key's lifetime.
func NewSealer(k Key) *Sealer {
	s := MakeSealer(k)
	return &s
}

// MakeSealer is NewSealer by value, for a holder that keeps the schedule
// inside a larger record: it costs only the AES cipher and the GCM.
func MakeSealer(k Key) Sealer {
	enc := layerKey(k)
	block, err := aes.NewCipher(enc[:])
	if err != nil {
		// aes.NewCipher only fails on bad key length; enc is fixed-size.
		panic("crypt: " + err.Error())
	}
	aead, err := cipher.NewGCMWithNonceSize(block, nonceSize)
	if err != nil {
		// Only a non-positive nonce size or GODEBUG=fips140=only refuses.
		// nonceSize is a positive constant, and FIPS-only mode already
		// panics on the SHA-1 that every node and hop ID is hashed with.
		panic("crypt: " + err.Error())
	}
	return Sealer{aead: aead}
}

// SealTo appends one sealed layer — nonce || AES-GCM(plaintext) || tag,
// the exact Seal wire format — to dst and returns the extended slice.
// The nonce is drawn from r. plaintext may alias dst's free capacity
// only if it starts exactly nonceSize bytes past the append point (the
// in-place layout SealInPlace serves); any other overlap is the
// caller's bug.
func (s *Sealer) SealTo(dst []byte, r io.Reader, plaintext []byte) ([]byte, error) {
	off := len(dst)
	total := off + nonceSize + len(plaintext) + tagSize
	if cap(dst) < total {
		grown := make([]byte, off, total)
		copy(grown, dst)
		dst = grown
	}
	out := dst[:off+nonceSize]
	nonce := out[off:]
	if _, err := io.ReadFull(r, nonce); err != nil {
		return dst, fmt.Errorf("crypt: drawing nonce: %w", err)
	}
	return s.aead.Seal(out, nonce, plaintext, nil), nil
}

// SealInPlace seals b's interior: on entry b must hold the plaintext at
// b[nonceSize : len(b)-tagSize] with the margins reserved; on return b
// is a complete sealed layer. This is the zero-copy primitive layered
// message building uses — each layer is sealed where it already lies.
func (s *Sealer) SealInPlace(b []byte, r io.Reader) error {
	return s.SealInPlaceFrom(b, r, len(b)-Overhead, nil)
}

// SealInPlaceFrom is SealInPlace for a plaintext split in two: the first
// inPlaceLen bytes already sit in b's interior, the remaining bytes are
// read from tail, which must not overlap b. len(b) must equal Overhead +
// inPlaceLen + len(tail).
func (s *Sealer) SealInPlaceFrom(b []byte, r io.Reader, inPlaceLen int, tail []byte) error {
	if len(b) < Overhead || inPlaceLen < 0 || len(b)-Overhead != inPlaceLen+len(tail) {
		return fmt.Errorf("crypt: seal-in-place layout mismatch: %d bytes for %d+%d plaintext", len(b), inPlaceLen, len(tail))
	}
	nonce := b[:nonceSize]
	if _, err := io.ReadFull(r, nonce); err != nil {
		return fmt.Errorf("crypt: drawing nonce: %w", err)
	}
	copy(b[nonceSize+inPlaceLen:], tail)
	s.aead.Seal(b[:nonceSize], nonce, b[nonceSize:len(b)-tagSize], nil)
	return nil
}

// OpenTo authenticates sealed and appends its plaintext to dst,
// returning the extended slice. sealed is not modified. dst must not
// overlap sealed. On error dst is returned at its length on entry; its
// spare capacity may have been written (zeroed), never with plaintext.
func (s *Sealer) OpenTo(dst []byte, sealed []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return dst, ErrTruncated
	}
	out, err := s.aead.Open(dst, sealed[:nonceSize], sealed[nonceSize:], nil)
	if err != nil {
		return dst, ErrAuth
	}
	return out, nil
}

// OpenInPlace authenticates sealed and decrypts its body where it lies,
// returning the plaintext as a sub-slice of sealed. On success its
// interior holds plaintext and the blob must not be treated as sealed
// again; on ErrAuth the body is zeroed — no unauthenticated plaintext is
// left behind — and the blob is spent either way. This is the hop-side
// primitive: one layer peel costs one AEAD pass, nothing else.
func (s *Sealer) OpenInPlace(sealed []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, ErrTruncated
	}
	body := sealed[nonceSize : len(sealed)-tagSize]
	if _, err := s.aead.Open(body[:0], sealed[:nonceSize], sealed[nonceSize:], nil); err != nil {
		return nil, ErrAuth
	}
	return body, nil
}
