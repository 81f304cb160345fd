package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"io"
	"testing"

	"tap/internal/rng"
)

// referenceSeal is a frozen copy of the pre-Sealer Seal implementation,
// built directly on the standard library. The wire format promised to
// every deployed anchor is "whatever this function emits"; the tests
// below hold Seal, SealTo and SealInPlace to byte equality with it so
// the cached-schedule fast paths can never drift.
func referenceSeal(k Key, r io.Reader, plaintext []byte) ([]byte, error) {
	encKey, macKey := subkeys(k)
	out := make([]byte, nonceSize+len(plaintext)+tagSize)
	nonce := out[:nonceSize]
	if _, err := io.ReadFull(r, nonce); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		return nil, err
	}
	cipher.NewCTR(block, nonce).XORKeyStream(out[nonceSize:nonceSize+len(plaintext)], plaintext)
	mac := hmac.New(sha256.New, macKey[:])
	mac.Write(out[:nonceSize+len(plaintext)])
	copy(out[nonceSize+len(plaintext):], mac.Sum(nil)[:tagSize])
	return out, nil
}

// refSubkeys is the derivation by the library's HMAC: the definition
// subkeys is held to.
func refSubkeys(k Key) (enc [16]byte, mac [32]byte) {
	h := hmac.New(sha256.New, k[:])
	h.Write([]byte("tap.layer.enc"))
	copy(enc[:], h.Sum(nil))
	h.Reset()
	h.Write([]byte("tap.layer.mac"))
	copy(mac[:], h.Sum(nil))
	return
}

func TestSubkeysMatchHMAC(t *testing.T) {
	check := func(k Key) {
		t.Helper()
		enc, mac := subkeys(k)
		wantEnc, wantMac := refSubkeys(k)
		if enc != wantEnc || mac != wantMac {
			t.Fatalf("key %x: subkeys differ from HMAC-SHA256", k)
		}
	}
	var k Key
	check(k)
	for i := range k {
		k[i] = 0xff
	}
	check(k)
	s := rng.New(30)
	for i := 0; i < 10_000; i++ {
		s.Bytes(k[:])
		check(k)
	}
	if a := testing.AllocsPerRun(100, func() { subkeys(k) }); a != 0 {
		t.Errorf("subkeys: %.0f allocs, want 0", a)
	}
}

// TestNewSealerAllocBudget: a key schedule allocates the Sealer and its
// keyed, primed HMAC — 8 objects, 10 under the race detector, measured
// here — the AES round keys, and the MAC subkey that hmac.New makes escape:
// 10 in all, and nothing for deriving the subkeys.
func TestNewSealerAllocBudget(t *testing.T) {
	var k Key
	withoutCipher := testing.AllocsPerRun(100, func() {
		s := &Sealer{mac: hmac.New(sha256.New, k[:])}
		s.mac.Sum(s.sum[:0])
		s.mac.Reset()
		sealerSink = s
	})
	if got := testing.AllocsPerRun(100, func() { sealerSink = NewSealer(k) }); got > withoutCipher+2 {
		t.Errorf("NewSealer: %.0f allocs, %.0f of them the Sealer and its HMAC, want two more: the cipher and the MAC subkey", got, withoutCipher)
	}
}

// sealerSizes crosses the small-CTR limit and block boundaries.
var sealerSizes = []int{0, 1, 15, 16, 17, 100, smallCTRLimit - 1, smallCTRLimit, smallCTRLimit + 1, 4096, 250_000}

func TestSealMatchesReference(t *testing.T) {
	s := rng.New(20)
	k, _ := NewKey(s)
	for _, size := range sealerSizes {
		msg := make([]byte, size)
		s.Bytes(msg)
		seed := s.Uint64()
		want, err := referenceSeal(k, rng.New(seed), msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Seal(k, rng.New(seed), msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: Seal output differs from reference implementation", size)
		}
	}
}

func TestSealToMatchesSealAndOpens(t *testing.T) {
	s := rng.New(21)
	k, _ := NewKey(s)
	sl := NewSealer(k)
	buf := []byte("prefix:")
	for _, size := range sealerSizes {
		msg := make([]byte, size)
		s.Bytes(msg)
		seed := s.Uint64()
		want, err := Seal(k, rng.New(seed), msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sl.SealTo(buf, rng.New(seed), msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(buf)], buf) {
			t.Fatalf("size %d: SealTo clobbered the prefix", size)
		}
		if !bytes.Equal(got[len(buf):], want) {
			t.Fatalf("size %d: SealTo output differs from Seal", size)
		}
		// Old path opens new blobs…
		plain, err := Open(k, got[len(buf):])
		if err != nil || !bytes.Equal(plain, msg) {
			t.Fatalf("size %d: Open of SealTo blob: %v", size, err)
		}
		// …and the new paths open old blobs.
		plain2, err := sl.OpenTo(nil, want)
		if err != nil || !bytes.Equal(plain2, msg) {
			t.Fatalf("size %d: OpenTo of Seal blob: %v", size, err)
		}
		cp := append([]byte(nil), want...)
		plain3, err := sl.OpenInPlace(cp)
		if err != nil || !bytes.Equal(plain3, msg) {
			t.Fatalf("size %d: OpenInPlace of Seal blob: %v", size, err)
		}
		if size > 0 && &cp[nonceSize] != &plain3[0] {
			t.Fatalf("size %d: OpenInPlace result does not alias its input", size)
		}
	}
}

func TestSealInPlaceMatchesSeal(t *testing.T) {
	s := rng.New(22)
	k, _ := NewKey(s)
	sl := NewSealer(k)
	for _, size := range sealerSizes {
		msg := make([]byte, size)
		s.Bytes(msg)
		seed := s.Uint64()
		want, err := Seal(k, rng.New(seed), msg)
		if err != nil {
			t.Fatal(err)
		}
		// Full in-place: plaintext pre-placed in the interior.
		buf := make([]byte, size+Overhead)
		copy(buf[nonceSize:], msg)
		if err := sl.SealInPlace(buf, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("size %d: SealInPlace differs from Seal", size)
		}
		// Split at every interesting boundary: header in place, tail from
		// an external source.
		for _, split := range []int{0, 1, 7, 16, 33, size} {
			if split > size {
				continue
			}
			buf := make([]byte, size+Overhead)
			copy(buf[nonceSize:], msg[:split])
			if err := sl.SealInPlaceFrom(buf, rng.New(seed), split, msg[split:]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("size %d split %d: SealInPlaceFrom differs from Seal", size, split)
			}
		}
	}

	// The resumed small-CTR path, exhaustively: every (bytes already in
	// place, tail length) pair across three blocks, so every split phase
	// meets every ragged head, whole-block run and ragged tail — under
	// nonces whose counter carries while being advanced past the in-place
	// part: out of the last byte, out of the low word, and through all
	// sixteen bytes back to zero. Held to the stdlib reference directly.
	ff := bytes.Repeat([]byte{0xff}, nonceSize)
	nonces := [][]byte{
		make([]byte, nonceSize), // drawn below
		append(make([]byte, nonceSize-1), 0xff),
		append(make([]byte, nonceSize-8), ff[:8]...),
		ff,
		append(append([]byte{}, ff[:nonceSize-1]...), 0xfe), // wraps on the second block
	}
	s.Bytes(nonces[0])
	msg := make([]byte, 2*47)
	s.Bytes(msg)
	for _, nonce := range nonces {
		for split := 0; split <= 47; split++ {
			for tail := 0; tail <= 47; tail++ {
				plain := msg[:split+tail]
				want, err := referenceSeal(k, bytes.NewReader(nonce), plain)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, len(plain)+Overhead)
				copy(buf[nonceSize:], plain[:split])
				if err := sl.SealInPlaceFrom(buf, bytes.NewReader(nonce), split, plain[split:]); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("nonce %x split %d tail %d: SealInPlaceFrom differs from the reference", nonce, split, tail)
				}
			}
		}
	}
}

func TestSealInPlaceFromLayoutMismatch(t *testing.T) {
	s := rng.New(23)
	k, _ := NewKey(s)
	sl := NewSealer(k)
	if err := sl.SealInPlaceFrom(make([]byte, Overhead+4), s, 3, make([]byte, 3)); err == nil {
		t.Fatal("layout mismatch accepted")
	}
	if err := sl.SealInPlaceFrom(make([]byte, Overhead-1), s, 0, nil); err == nil {
		t.Fatal("undersized buffer accepted")
	}
}

func TestOpenInPlaceRejectsTamperUntouched(t *testing.T) {
	s := rng.New(24)
	k, _ := NewKey(s)
	sl := NewSealer(k)
	msg := make([]byte, 300)
	s.Bytes(msg)
	sealed, err := sl.SealTo(nil, s, msg)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), sealed...)
	mut[nonceSize+5] ^= 1
	before := append([]byte(nil), mut...)
	if _, err := sl.OpenInPlace(mut); err != ErrAuth {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
	if !bytes.Equal(mut, before) {
		t.Fatal("failed OpenInPlace modified its input")
	}
	if _, err := sl.OpenInPlace(make([]byte, Overhead-1)); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestSealerRoundTripAcrossInstances(t *testing.T) {
	// Two Sealers for the same key interoperate (hop side vs owner side).
	s := rng.New(25)
	k, _ := NewKey(s)
	a, b := NewSealer(k), NewSealer(k)
	msg := []byte("between instances")
	sealed, err := a.SealTo(nil, s, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.OpenTo(nil, sealed)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("cross-instance open: %v", err)
	}
}

func TestSealerSteadyStateZeroAllocs(t *testing.T) {
	s := rng.New(26)
	k, _ := NewKey(s)
	sl := NewSealer(k)
	msg := make([]byte, 512) // the small-message regime: every TAP control message
	s.Bytes(msg)
	buf := make([]byte, 0, len(msg)+Overhead)
	if a := testing.AllocsPerRun(200, func() {
		out, err := sl.SealTo(buf[:0], s, msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sl.OpenInPlace(out); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("steady-state small seal+open: %.1f allocs/op, want 0", a)
	}

	// Above the limit the stdlib CTR stream costs one allocation per pass;
	// pin that bound so it cannot silently grow back toward the old ~20.
	big := make([]byte, 64*1024)
	s.Bytes(big)
	bigBuf := make([]byte, 0, len(big)+Overhead)
	if a := testing.AllocsPerRun(50, func() {
		out, err := sl.SealTo(bigBuf[:0], s, big)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sl.OpenInPlace(out); err != nil {
			t.Fatal(err)
		}
	}); a > 2 {
		t.Fatalf("steady-state large seal+open: %.1f allocs/op, want ≤ 2 (one CTR stream per pass)", a)
	}
}

func FuzzOpenTo(f *testing.F) {
	s := rng.New(27)
	k, _ := NewKey(s)
	valid, _ := Seal(k, s, []byte("fuzz seed payload"))
	f.Add(valid)
	f.Add(valid[:Overhead])
	f.Add([]byte{})
	tampered := append([]byte(nil), valid...)
	tampered[0] ^= 0xff
	f.Add(tampered)
	f.Fuzz(func(t *testing.T, data []byte) {
		sl := NewSealer(k)
		got, errNew := sl.OpenTo(nil, data)
		want, errOld := Open(k, data)
		if (errNew == nil) != (errOld == nil) {
			t.Fatalf("OpenTo err=%v but Open err=%v", errNew, errOld)
		}
		if errNew == nil && !bytes.Equal(got, want) {
			t.Fatal("OpenTo and Open disagree on plaintext")
		}
		cp := append([]byte(nil), data...)
		gotIP, errIP := sl.OpenInPlace(cp)
		if (errIP == nil) != (errOld == nil) {
			t.Fatalf("OpenInPlace err=%v but Open err=%v", errIP, errOld)
		}
		if errIP == nil && !bytes.Equal(gotIP, want) {
			t.Fatal("OpenInPlace and Open disagree on plaintext")
		}
	})
}

func BenchmarkNewSealer(b *testing.B) {
	k, _ := NewKey(rng.New(31))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sealerSink = NewSealer(k)
	}
}

var sealerSink *Sealer

func BenchmarkSealerSeal1KiB(b *testing.B) {
	s := rng.New(28)
	k, _ := NewKey(s)
	sl := NewSealer(k)
	msg := make([]byte, 1024)
	buf := make([]byte, 0, len(msg)+Overhead)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sl.SealTo(buf[:0], s, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealerOpenInPlace1KiB(b *testing.B) {
	s := rng.New(29)
	k, _ := NewKey(s)
	sl := NewSealer(k)
	msg := make([]byte, 1024)
	sealed, err := sl.SealTo(nil, s, msg)
	if err != nil {
		b.Fatal(err)
	}
	scratch := make([]byte, len(sealed))
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, sealed)
		if _, err := sl.OpenInPlace(scratch); err != nil {
			b.Fatal(err)
		}
	}
}
