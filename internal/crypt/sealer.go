package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math/bits"
)

// smallCTRLimit is the plaintext size up to which the Sealer uses its own
// allocation-free CTR loop instead of cipher.NewCTR. The stdlib stream is
// faster per byte but costs one ~512 B allocation per message; below this
// limit — which covers every control message, reply-onion layer, and
// anchor deployment TAP sends — the steady-state seal/open path performs
// zero allocations.
const smallCTRLimit = 1024

// Sealer is the cached key schedule for one layer key: the enc/mac
// subkeys are derived once, the AES key schedule is expanded once, and
// one HMAC state is keyed once and reset between messages. Tunnels hold
// one Sealer per hop (owner side) and anchors carry one from deployment
// (hop side), so per-message work drops to exactly one cipher pass and
// one MAC pass.
//
// A Sealer is NOT safe for concurrent use: the HMAC state and CTR
// scratch are reused across calls. Each goroutine needs its own (or its
// own tunnel/anchor, which in TAP it always has).
type Sealer struct {
	block cipher.Block // AES-128 under the derived enc subkey
	mac   hash.Hash    // HMAC-SHA256 under the derived mac subkey, Reset per use
	sum   [sha256.Size]byte
	ks    [aes.BlockSize]byte // keystream scratch for the small-message CTR
	ctr   [aes.BlockSize]byte // counter scratch
}

// NewSealer derives the subkey schedule for k. The returned Sealer makes
// Seal/Open-equivalent operations reuse that work for the key's lifetime.
func NewSealer(k Key) *Sealer {
	encKey, macKey := subkeys(k)
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		// aes.NewCipher only fails on bad key length; encKey is fixed-size.
		panic("crypt: " + err.Error())
	}
	s := &Sealer{block: block, mac: hmac.New(sha256.New, macKey[:])}
	// Prime the HMAC pad cache so the first sealed message is already on
	// the allocation-free path.
	s.mac.Sum(s.sum[:0])
	s.mac.Reset()
	return s
}

// xorKeyStream is the allocation-free CTR used for small messages: the
// big-endian counter starts at the nonce, exactly like cipher.NewCTR, so
// output is bit-identical to the stdlib stream. It first passes over skip
// bytes of keystream (not necessarily whole blocks), so a caller can
// continue a stream it applied to an earlier part of the message. dst and
// src must either be the same slice or not overlap.
func (s *Sealer) xorKeyStream(dst, src, nonce []byte, skip int) {
	// Counter = nonce + skip/BlockSize: one 128-bit add.
	lo, carry := bits.Add64(binary.BigEndian.Uint64(nonce[8:]), uint64(skip/aes.BlockSize), 0)
	binary.BigEndian.PutUint64(s.ctr[:8], binary.BigEndian.Uint64(nonce[:8])+carry)
	binary.BigEndian.PutUint64(s.ctr[8:], lo)
	// off is where the current keystream block starts within src; it is
	// negative only for the block the skipped part stopped in.
	for off := -(skip % aes.BlockSize); off < len(src); off += aes.BlockSize {
		s.block.Encrypt(s.ks[:], s.ctr[:])
		// Increment the counter (big-endian, carrying leftward).
		for i := aes.BlockSize - 1; i >= 0; i-- {
			s.ctr[i]++
			if s.ctr[i] != 0 {
				break
			}
		}
		if off >= 0 && len(src)-off >= aes.BlockSize {
			// Full block: XOR as two uint64 lanes.
			v0 := binary.LittleEndian.Uint64(src[off:]) ^ binary.LittleEndian.Uint64(s.ks[:8])
			v1 := binary.LittleEndian.Uint64(src[off+8:]) ^ binary.LittleEndian.Uint64(s.ks[8:])
			binary.LittleEndian.PutUint64(dst[off:], v0)
			binary.LittleEndian.PutUint64(dst[off+8:], v1)
			continue
		}
		// Ragged head or tail: the bytes of this block that fall in src.
		for i := max(off, 0); i < off+aes.BlockSize && i < len(src); i++ {
			dst[i] = src[i] ^ s.ks[i-off]
		}
	}
}

// stream applies the CTR keystream for nonce to src, writing into dst
// (which may be src itself): the small path in place, the stdlib stream
// above smallCTRLimit.
func (s *Sealer) stream(dst, src, nonce []byte) {
	if len(src) <= smallCTRLimit {
		s.xorKeyStream(dst, src, nonce, 0)
		return
	}
	cipher.NewCTR(s.block, nonce).XORKeyStream(dst, src)
}

// tag computes the truncated transmission tag over body into out
// (len tagSize) without allocating.
func (s *Sealer) tag(out, body []byte) {
	s.mac.Reset()
	s.mac.Write(body)
	s.mac.Sum(s.sum[:0])
	copy(out, s.sum[:tagSize])
}

// SealTo appends one sealed layer — nonce || AES-CTR(plaintext) || tag,
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
	out := dst[:total]
	nonce := out[off : off+nonceSize]
	if _, err := io.ReadFull(r, nonce); err != nil {
		return dst, fmt.Errorf("crypt: drawing nonce: %w", err)
	}
	body := out[off+nonceSize : total-tagSize]
	s.stream(body, plaintext, nonce)
	s.tag(out[total-tagSize:], out[off:total-tagSize])
	return out, nil
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
// read from tail and written — encrypted — into b, sparing the caller
// the plaintext copy. len(b) must equal Overhead + inPlaceLen + len(tail).
func (s *Sealer) SealInPlaceFrom(b []byte, r io.Reader, inPlaceLen int, tail []byte) error {
	if len(b) < Overhead || inPlaceLen < 0 || len(b)-Overhead != inPlaceLen+len(tail) {
		return fmt.Errorf("crypt: seal-in-place layout mismatch: %d bytes for %d+%d plaintext", len(b), inPlaceLen, len(tail))
	}
	nonce := b[:nonceSize]
	if _, err := io.ReadFull(r, nonce); err != nil {
		return fmt.Errorf("crypt: drawing nonce: %w", err)
	}
	body := b[nonceSize : len(b)-tagSize]
	if len(body) <= smallCTRLimit {
		s.xorKeyStream(body[:inPlaceLen], body[:inPlaceLen], nonce, 0)
		if len(tail) > 0 {
			// Continue the keystream where the in-place part stopped,
			// even mid-block.
			s.xorKeyStream(body[inPlaceLen:], tail, nonce, inPlaceLen)
		}
	} else {
		ctr := cipher.NewCTR(s.block, nonce)
		ctr.XORKeyStream(body[:inPlaceLen], body[:inPlaceLen])
		if len(tail) > 0 {
			ctr.XORKeyStream(body[inPlaceLen:], tail)
		}
	}
	s.tag(b[len(b)-tagSize:], b[:len(b)-tagSize])
	return nil
}

// OpenTo authenticates sealed and appends its plaintext to dst,
// returning the extended slice. sealed is not modified. dst must not
// overlap sealed.
func (s *Sealer) OpenTo(dst []byte, sealed []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return dst, ErrTruncated
	}
	if !s.check(sealed) {
		return dst, ErrAuth
	}
	off := len(dst)
	n := len(sealed) - Overhead
	total := off + n
	if cap(dst) < total {
		grown := make([]byte, off, total)
		copy(grown, dst)
		dst = grown
	}
	out := dst[:total]
	s.stream(out[off:], sealed[nonceSize:len(sealed)-tagSize], sealed[:nonceSize])
	return out, nil
}

// OpenInPlace authenticates sealed and decrypts its body where it lies,
// returning the plaintext as a sub-slice of sealed. On error sealed is
// untouched; on success its interior holds plaintext and the blob must
// not be treated as sealed again. This is the hop-side primitive: one
// layer peel costs one MAC pass and one in-place cipher pass, nothing
// else.
func (s *Sealer) OpenInPlace(sealed []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, ErrTruncated
	}
	if !s.check(sealed) {
		return nil, ErrAuth
	}
	body := sealed[nonceSize : len(sealed)-tagSize]
	s.stream(body, body, sealed[:nonceSize])
	return body, nil
}

// check verifies sealed's tag without allocating.
func (s *Sealer) check(sealed []byte) bool {
	s.tag(s.sum[:tagSize], sealed[:len(sealed)-tagSize])
	return hmac.Equal(s.sum[:tagSize], sealed[len(sealed)-tagSize:])
}
