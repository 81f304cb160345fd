// Package crypt supplies the cryptographic primitives TAP's tunneling
// uses: symmetric layer encryption (the per-hop {m}_K operation of the
// paper's Figure 1), public-key boxes for the PKI the Onion-Routing
// bootstrap assumes, password hashing for THA ownership proofs, and
// CPU-payment puzzles for THA-flood defense.
//
// Everything is built from the Go standard library: AES-128-GCM with a
// 16-byte random nonce for sealed layers (one AEAD pass encrypts and
// authenticates), X25519 for boxes, SHA-256 for passwords, and a
// hashcash-style partial-preimage puzzle. The paper's results do not
// depend on cipher choice ("the overhead introduced by symmetric
// encryption/decryption in tunneling is negligible"); what matters is
// that each hop performs exactly one symmetric operation per message,
// which the layer format preserves.
//
// GCM's security rests on never sealing two messages under one key with
// one nonce. Every nonce is drawn fresh — from crypto/rand in deployment,
// from the initiator's own rng stream in simulation — and every key is
// one tunnel hop's or one stream's, so a key seals far fewer than the
// 2³² messages NIST SP 800-38D allows under random nonces.
package crypt

import (
	"crypto/aes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// KeySize is the symmetric key length in bytes (AES-128).
const KeySize = 16

// nonceSize is the GCM nonce length: a full block rather than GCM's
// standard 12 bytes, because the simulator goldens fix every layer's
// wire size and nonce draw at 16 bytes.
const nonceSize = aes.BlockSize

// tagSize is the GCM authentication tag length, untruncated.
const tagSize = 16

// Overhead is the ciphertext expansion of one Seal: nonce plus tag. Layer
// counting in tunnel messages uses it to compute wire sizes.
const Overhead = nonceSize + tagSize

// NonceSize is Overhead's leading component, exported so layered message
// builders can reserve the exact margin ahead of an in-place plaintext
// region: a sealed blob is nonce (NonceSize) || body || tag.
const NonceSize = nonceSize

// Key is a symmetric layer key — the K of a tunnel hop anchor.
type Key [KeySize]byte

// NewKey draws a key from r, which may be crypto/rand for deployment or a
// deterministic rng.Stream for simulation.
func NewKey(r io.Reader) (Key, error) {
	var k Key
	if _, err := io.ReadFull(r, k[:]); err != nil {
		return Key{}, fmt.Errorf("crypt: drawing key: %w", err)
	}
	return k, nil
}

// ErrAuth is returned when a sealed layer fails authentication: the
// ciphertext was modified, or the wrong key was used — e.g. a node that is
// not the intended tunnel hop trying to peel a layer.
var ErrAuth = errors.New("crypt: message authentication failed")

// ErrTruncated is returned when a sealed blob is too short to contain a
// nonce and tag.
var ErrTruncated = errors.New("crypt: sealed blob truncated")

// layerKey derives the AES-128-GCM key from k: HMAC-SHA256(k,
// "tap.layer.enc") truncated to 16 bytes, so the layer cipher never runs
// under the anchor key itself. It is computed by HMAC's definition,
// H((k ^ opad) || H((k ^ ipad) || label)), on stack arrays: a schedule is
// derived per anchor, per stream and per crypt.Seal call, and hmac.New
// would put two hash states and two pad buffers on the heap for each.
func layerKey(k Key) [16]byte {
	const label = "tap.layer.enc"
	var inner [sha256.BlockSize + len(label)]byte
	var outer [sha256.BlockSize + sha256.Size]byte
	for i := 0; i < sha256.BlockSize; i++ {
		inner[i], outer[i] = 0x36, 0x5c
	}
	for i, b := range k {
		inner[i] ^= b
		outer[i] ^= b
	}
	copy(inner[sha256.BlockSize:], label)
	sum := sha256.Sum256(inner[:])
	copy(outer[sha256.BlockSize:], sum[:])
	full := sha256.Sum256(outer[:])
	return [16]byte(full[:16])
}

// Seal encrypts and authenticates plaintext under k with a nonce drawn
// from r: output is nonce || AES-GCM ciphertext || tag.
//
// Seal derives k's schedule on every call; hot paths that reuse a key
// should hold a Sealer and call SealTo, which emits bit-identical output.
func Seal(k Key, r io.Reader, plaintext []byte) ([]byte, error) {
	out, err := NewSealer(k).SealTo(nil, r, plaintext)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Open authenticates and decrypts a blob produced by Seal with the same
// key. Like Seal, it derives the schedule per call; hot paths use
// Sealer.OpenTo or Sealer.OpenInPlace.
func Open(k Key, sealed []byte) ([]byte, error) {
	out, err := NewSealer(k).OpenTo(nil, sealed)
	if err != nil {
		return nil, err
	}
	return out, nil
}
