// Package crypt supplies the cryptographic primitives TAP's tunneling
// uses: symmetric layer encryption (the per-hop {m}_K operation of the
// paper's Figure 1), public-key boxes for the PKI the Onion-Routing
// bootstrap assumes, password hashing for THA ownership proofs, and
// CPU-payment puzzles for THA-flood defense.
//
// Everything is built from the Go standard library: AES-CTR with an
// HMAC-SHA256 tag for sealed layers (encrypt-then-MAC), X25519 for boxes,
// SHA-256 for passwords, and a hashcash-style partial-preimage puzzle.
// The paper's results do not depend on cipher choice ("the overhead
// introduced by symmetric encryption/decryption in tunneling is
// negligible"); what matters is that each hop performs exactly one
// symmetric operation per message, which the layer format preserves.
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

// nonceSize is the CTR IV length.
const nonceSize = aes.BlockSize

// tagSize is the truncated HMAC-SHA256 tag length.
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

// subkeys derives independent encryption and MAC keys from k, so the same
// anchor key can safely drive both AES and HMAC: enc and mac are
// HMAC-SHA256(k, "tap.layer.enc") and HMAC-SHA256(k, "tap.layer.mac"), enc
// truncated to its 16 bytes. Both are computed by HMAC's definition,
// H((k ^ opad) || H((k ^ ipad) || label)), on stack arrays: a schedule is
// derived per anchor, per stream and per crypt.Seal call, and hmac.New
// would put two hash states and two pad buffers on the heap for each.
func subkeys(k Key) (enc [16]byte, mac [32]byte) {
	const label = len("tap.layer.enc")
	var inner [sha256.BlockSize + label]byte
	var outer [sha256.BlockSize + sha256.Size]byte
	for i := 0; i < sha256.BlockSize; i++ {
		inner[i], outer[i] = 0x36, 0x5c
	}
	for i, b := range k {
		inner[i] ^= b
		outer[i] ^= b
	}
	derive := func(what string) [sha256.Size]byte {
		copy(inner[sha256.BlockSize:], what)
		sum := sha256.Sum256(inner[:])
		copy(outer[sha256.BlockSize:], sum[:])
		return sha256.Sum256(outer[:])
	}
	full := derive("tap.layer.enc")
	copy(enc[:], full[:])
	mac = derive("tap.layer.mac")
	return
}

// Seal encrypts plaintext under k with a nonce drawn from r and appends an
// authentication tag: output is nonce || AES-CTR(ciphertext) || tag.
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
