package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"io"
	"sync"
	"testing"

	"tap/internal/rng"
)

// refLayerKey is the derivation by the library's HMAC: the definition
// layerKey is held to.
func refLayerKey(k Key) [16]byte {
	h := hmac.New(sha256.New, k[:])
	h.Write([]byte("tap.layer.enc"))
	return [16]byte(h.Sum(nil)[:16])
}

// refAEAD is stdlib AES-128-GCM under k's layer key with 16-byte nonces,
// built without the Sealer.
func refAEAD(k Key) cipher.AEAD {
	enc := refLayerKey(k)
	block, err := aes.NewCipher(enc[:])
	if err != nil {
		panic(err)
	}
	aead, err := cipher.NewGCMWithNonceSize(block, 16)
	if err != nil {
		panic(err)
	}
	return aead
}

// referenceSeal is the layer format by its definition, built directly on
// the standard library: nonce(16) ‖ GCM ciphertext ‖ tag(16), no
// additional data. The wire format promised to every deployed anchor is
// "whatever this function emits"; the tests below hold Seal, SealTo and
// SealInPlace to byte equality with it so the Sealer can never drift.
func referenceSeal(k Key, r io.Reader, plaintext []byte) ([]byte, error) {
	nonce := make([]byte, 16)
	if _, err := io.ReadFull(r, nonce); err != nil {
		return nil, err
	}
	return refAEAD(k).Seal(nonce, nonce, plaintext, nil), nil
}

// legacySeal is the layer format this package emitted before GCM: the
// same nonce ‖ body ‖ tag(16) sizes, with an AES-CTR body under
// HMAC-SHA256(k, "tap.layer.enc") and a truncated HMAC-SHA256 tag under
// HMAC-SHA256(k, "tap.layer.mac") over nonce ‖ body. A node still
// running it sends blobs of exactly the right length, so what an opener
// does with one is a contract of its own (TestLegacyLayersFailClosed).
func legacySeal(k Key, r io.Reader, plaintext []byte) ([]byte, error) {
	derive := func(label string) []byte {
		h := hmac.New(sha256.New, k[:])
		h.Write([]byte(label))
		return h.Sum(nil)
	}
	out := make([]byte, 16+len(plaintext)+16)
	nonce := out[:16]
	if _, err := io.ReadFull(r, nonce); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(derive("tap.layer.enc")[:16])
	if err != nil {
		return nil, err
	}
	cipher.NewCTR(block, nonce).XORKeyStream(out[16:16+len(plaintext)], plaintext)
	mac := hmac.New(sha256.New, derive("tap.layer.mac"))
	mac.Write(out[:16+len(plaintext)])
	copy(out[16+len(plaintext):], mac.Sum(nil)[:16])
	return out, nil
}

func TestLayerKeyMatchesHMAC(t *testing.T) {
	check := func(k Key) {
		t.Helper()
		if layerKey(k) != refLayerKey(k) {
			t.Fatalf("key %x: layer key differs from HMAC-SHA256", k)
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
	if a := testing.AllocsPerRun(100, func() { layerKey(k) }); a != 0 {
		t.Errorf("layerKey: %.0f allocs, want 0", a)
	}
}

// TestNewSealerAllocBudget: a key schedule allocates what the standard
// library's AES cipher and GCM allocate — measured here, 2 on go1.24 —
// and the Sealer: nothing for deriving the layer key.
func TestNewSealerAllocBudget(t *testing.T) {
	var k Key
	stdlib := testing.AllocsPerRun(100, func() {
		block, _ := aes.NewCipher(k[:])
		aeadSink, _ = cipher.NewGCMWithNonceSize(block, nonceSize)
	})
	if got := testing.AllocsPerRun(100, func() { sealerSink = NewSealer(k) }); got != stdlib+1 {
		t.Errorf("NewSealer: %.0f allocs, want %.0f: the cipher and AEAD (%.0f) and the Sealer", got, stdlib+1, stdlib)
	}
}

// sealerSizes crosses block boundaries and sizes around 1 KiB, and
// includes tcp_bulk's 32 KiB chunk.
var sealerSizes = []int{0, 1, 15, 16, 17, 100, 1023, 1024, 1025, 4096, 32 << 10, 250_000}

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
		want, err := referenceSeal(k, rng.New(seed), msg)
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
			t.Fatalf("size %d: SealInPlace differs from the reference", size)
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
				t.Fatalf("size %d split %d: SealInPlaceFrom differs from the reference", size, split)
			}
		}
	}

	// Every (bytes already in place, tail length) pair across three
	// blocks, so every split phase meets every ragged head, whole-block run
	// and ragged tail — under a drawn nonce and the all-zero and all-ones
	// nonces. Held to the stdlib reference directly.
	nonces := [][]byte{make([]byte, nonceSize), make([]byte, nonceSize), bytes.Repeat([]byte{0xff}, nonceSize)}
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

// TestOpenInPlaceRejectsTamperZeroesBody: a failed in-place open leaves
// no plaintext behind — the body is zeroed — and does not touch the
// nonce or the tag.
func TestOpenInPlaceRejectsTamperZeroesBody(t *testing.T) {
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
	if !bytes.Equal(mut[:nonceSize], before[:nonceSize]) || !bytes.Equal(mut[len(mut)-tagSize:], before[len(before)-tagSize:]) {
		t.Fatal("failed OpenInPlace modified the nonce or the tag")
	}
	if !bytes.Equal(mut[nonceSize:len(mut)-tagSize], make([]byte, len(msg))) {
		t.Fatal("failed OpenInPlace left the body non-zero")
	}
	if _, err := sl.OpenInPlace(make([]byte, Overhead-1)); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

// TestLegacyLayersFailClosed: in a cluster where some node still seals
// with CTR+HMAC, its layers are exactly as long as GCM layers, so only
// authentication stands between them and a peel. Both openers must refuse
// them with ErrAuth at every size, without panicking and without writing
// a byte of the plaintext anywhere the caller can see.
func TestLegacyLayersFailClosed(t *testing.T) {
	s := rng.New(32)
	k, _ := NewKey(s)
	sl := NewSealer(k)
	for _, size := range sealerSizes {
		msg := make([]byte, size)
		s.Bytes(msg)
		legacy, err := legacySeal(k, s, msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(legacy) != size+Overhead {
			t.Fatalf("size %d: legacy layer of %d bytes, want %d", size, len(legacy), size+Overhead)
		}
		leaks := func(b []byte) bool { return size >= 8 && bytes.Contains(b, msg[:8]) }

		dst := make([]byte, 3, 3+size)
		got, err := sl.OpenTo(dst, legacy)
		if err != ErrAuth {
			t.Fatalf("size %d: OpenTo err = %v, want ErrAuth", size, err)
		}
		if len(got) != 3 || leaks(dst[:cap(dst)]) {
			t.Fatalf("size %d: failed OpenTo released plaintext", size)
		}

		cp := bytes.Clone(legacy)
		if _, err := sl.OpenInPlace(cp); err != ErrAuth {
			t.Fatalf("size %d: OpenInPlace err = %v, want ErrAuth", size, err)
		}
		if leaks(cp) || !bytes.Equal(cp[nonceSize:len(cp)-tagSize], make([]byte, size)) {
			t.Fatalf("size %d: failed OpenInPlace left the body non-zero", size)
		}
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

// TestSealerConcurrentUse holds the Sealer's concurrency note: one
// Sealer seals and opens from several goroutines at once, each with its
// own nonce stream and buffers. Run it under -race.
func TestSealerConcurrentUse(t *testing.T) {
	k, _ := NewKey(rng.New(33))
	sl := NewSealer(k)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := rng.New(uint64(34 + g))
			msg := make([]byte, 1500)
			for i := 0; i < 200; i++ {
				s.Bytes(msg)
				sealed, err := sl.SealTo(nil, s, msg)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := sl.OpenInPlace(sealed); err != nil || !bytes.Equal(got, msg) {
					t.Errorf("goroutine %d: round trip %d failed: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSealerSteadyStateZeroAllocs(t *testing.T) {
	s := rng.New(26)
	k, _ := NewKey(s)
	sl := NewSealer(k)
	for _, size := range []int{512, 64 << 10} { // a control message; a large data chunk
		msg := make([]byte, size)
		s.Bytes(msg)
		buf := make([]byte, 0, len(msg)+Overhead)
		if a := testing.AllocsPerRun(50, func() {
			out, err := sl.SealTo(buf[:0], s, msg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sl.OpenInPlace(out); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("steady-state seal+open of %d bytes: %.1f allocs/op, want 0", size, a)
		}
	}
}

// FuzzOpenTo holds both openers to stdlib GCM on arbitrary input: the
// same accept/reject decision and, on accept, the same plaintext.
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
	legacy, _ := legacySeal(k, s, []byte("fuzz seed payload"))
	f.Add(legacy)
	ref := refAEAD(k)
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []byte
		var errRef error = ErrTruncated
		if len(data) >= Overhead {
			want, errRef = ref.Open(nil, data[:16], data[16:], nil)
		}
		sl := NewSealer(k)
		got, errNew := sl.OpenTo(nil, data)
		if (errNew == nil) != (errRef == nil) {
			t.Fatalf("OpenTo err=%v but stdlib GCM err=%v", errNew, errRef)
		}
		if errNew == nil && !bytes.Equal(got, want) {
			t.Fatal("OpenTo and stdlib GCM disagree on plaintext")
		}
		cp := append([]byte(nil), data...)
		gotIP, errIP := sl.OpenInPlace(cp)
		if (errIP == nil) != (errRef == nil) {
			t.Fatalf("OpenInPlace err=%v but stdlib GCM err=%v", errIP, errRef)
		}
		if errIP == nil && !bytes.Equal(gotIP, want) {
			t.Fatal("OpenInPlace and stdlib GCM disagree on plaintext")
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

var (
	sealerSink *Sealer
	aeadSink   cipher.AEAD
)

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

// BenchmarkSealerSealOpen32KiB is one tcp_bulk chunk's layer: seal it,
// then peel it in place, under one cached schedule.
func BenchmarkSealerSealOpen32KiB(b *testing.B) {
	s := rng.New(35)
	k, _ := NewKey(s)
	sl := NewSealer(k)
	msg := make([]byte, 32<<10)
	s.Bytes(msg)
	buf := make([]byte, 0, len(msg)+Overhead)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sl.SealTo(buf[:0], s, msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sl.OpenInPlace(out); err != nil {
			b.Fatal(err)
		}
	}
}
