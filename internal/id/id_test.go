package id

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("node-1"), []byte("hkey"), []byte("t0"))
	b := Hash([]byte("node-1"), []byte("hkey"), []byte("t0"))
	if a != b {
		t.Fatalf("Hash not deterministic: %s vs %s", a, b)
	}
	c := Hash([]byte("node-1"), []byte("hkey"), []byte("t1"))
	if a == c {
		t.Fatalf("distinct inputs collided: %s", a)
	}
}

func TestHashMatchesConcatenation(t *testing.T) {
	// Hash over parts must equal Hash over the concatenated bytes, since
	// the paper's H(node_ID, hkey, t) is a hash of the concatenation.
	a := Hash([]byte("ab"), []byte("cd"))
	b := Hash([]byte("abcd"))
	if a != b {
		t.Fatalf("part-wise hash %s != concatenated hash %s", a, b)
	}
}

// TestHashStringIsSHA1OfTheString: HashString is SHA-1 over the string's
// UTF-8 bytes, the FIPS 180 test vector included.
func TestHashStringIsSHA1OfTheString(t *testing.T) {
	if got, want := HashString("abc"), MustParse("a9993e364706816aba3e25717850c26c9cd0d89d"); got != want {
		t.Fatalf("HashString(abc) = %s, want %s", got, want)
	}
	for _, s := range []string{"", "file-D", "héllo"} {
		if HashString(s) != Hash([]byte(s)) {
			t.Errorf("HashString(%q) != Hash of its bytes", s)
		}
	}
}

// TestShortIsTheLeadingEightDigits: Short renders the first four bytes, so
// ids that differ only past them share it.
func TestShortIsTheLeadingEightDigits(t *testing.T) {
	a := MustParse("0123456789abcdef0123456789abcdef01234567")
	if got := a.Short(); got != "01234567" || got != a.String()[:8] {
		t.Fatalf("Short = %q, want 01234567", got)
	}
	if b := a.Add(FromUint64(1)); b.Short() != a.Short() || b == a {
		t.Fatalf("a low-bit change altered Short: %s vs %s", b.Short(), a.Short())
	}
	if Zero.Short() != "00000000" || Max.Short() != "ffffffff" {
		t.Fatalf("Short(Zero) = %q, Short(Max) = %q", Zero.Short(), Max.Short())
	}
}

// TestIsZeroOnlyForTheZeroID: only the all-zero id is zero; a single set
// bit anywhere, high or low, is not.
func TestIsZeroOnlyForTheZeroID(t *testing.T) {
	var z ID
	if !z.IsZero() || !Zero.IsZero() {
		t.Fatal("the zero id is not zero")
	}
	for i := 0; i < Size; i++ {
		var v ID
		v[i] = 0x80
		if v.IsZero() {
			t.Fatalf("id with byte %d set reads as zero", i)
		}
	}
	if FromUint64(1).IsZero() || Max.IsZero() {
		t.Fatal("a nonzero id reads as zero")
	}
}

func TestParseRoundTrip(t *testing.T) {
	want := Hash([]byte("x"))
	got, err := Parse(want.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", want.String(), err)
	}
	if got != want {
		t.Fatalf("round trip: got %s want %s", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{"", "ab", "zz" + MustParse("00000000000000000000" + "00000000000000000000").String()[2:]}
	for _, s := range cases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

func TestFromUint64(t *testing.T) {
	v := FromUint64(0xdeadbeef)
	if v.Low64() != 0xdeadbeef {
		t.Fatalf("Low64 = %#x", v.Low64())
	}
	if want := MustParse("00000000000000000000000000000000deadbeef"); v != want {
		t.Fatalf("FromUint64 = %s, want %s", v, want)
	}
}

func TestCmp(t *testing.T) {
	a := FromUint64(1)
	b := FromUint64(2)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatalf("Cmp ordering broken")
	}
	if !a.Less(b) || b.Less(a) {
		t.Fatalf("Less inconsistent with Cmp")
	}
	if Zero.Cmp(Max) != -1 {
		t.Fatalf("Zero should compare below Max")
	}
}

// TestCmpMatchesBytesCompare holds the word-wise Cmp to the byte order
// the overlay's index was sorted by before: random pairs, pairs that
// differ in one byte (each position, both directions, including the bytes
// that straddle a word boundary), equal ids and the extremes.
func TestCmpMatchesBytesCompare(t *testing.T) {
	check := func(a, b ID) {
		t.Helper()
		want := bytes.Compare(a[:], b[:])
		if got := a.Cmp(b); got != want {
			t.Fatalf("%s.Cmp(%s) = %d, bytes.Compare gives %d", a, b, got, want)
		}
		if got := a.Less(b); got != (want < 0) {
			t.Fatalf("%s.Less(%s) = %v, Cmp gives %d", a, b, got, want)
		}
	}
	r := rand.New(rand.NewSource(40))
	var ids []ID
	for i := 0; i < 2000; i++ {
		var a, b ID
		r.Read(a[:])
		r.Read(b[:])
		check(a, b)
		check(a, a)
		ids = append(ids, a)
	}
	for _, base := range append(ids[:50], Zero, Max) {
		for i := 0; i < Size; i++ {
			for _, v := range []byte{0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff} {
				other := base
				other[i] = v
				check(base, other)
				check(other, base)
			}
		}
	}
	for _, a := range []ID{Zero, Max} {
		for _, b := range []ID{Zero, Max} {
			check(a, b)
		}
	}
}

func BenchmarkCmp(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ids := make([]ID, 1024)
	for i := range ids {
		r.Read(ids[i][:])
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += ids[i&1023].Cmp(ids[(i+1)&1023])
	}
	_ = n
}

func TestAddSubIdentities(t *testing.T) {
	a := Hash([]byte("a"))
	b := Hash([]byte("b"))
	if got := a.Add(Zero); got != a {
		t.Fatalf("a+0 = %s, want %s", got, a)
	}
	if got := a.Sub(a); got != Zero {
		t.Fatalf("a-a = %s, want zero", got)
	}
	if got := a.Add(b).Sub(b); got != a {
		t.Fatalf("(a+b)-b = %s, want %s", got, a)
	}
}

func TestAddWraps(t *testing.T) {
	one := FromUint64(1)
	if got := Max.Add(one); got != Zero {
		t.Fatalf("Max+1 = %s, want zero (mod 2^160)", got)
	}
	if got := Zero.Sub(one); got != Max {
		t.Fatalf("0-1 = %s, want Max", got)
	}
}

func TestDistanceSymmetricAndWraps(t *testing.T) {
	a := FromUint64(10)
	b := FromUint64(3)
	if d := RingDist(&a, &b).id(); d != FromUint64(7) {
		t.Fatalf("RingDist = %s, want 7", d)
	}
	if RingDist(&a, &b) != RingDist(&b, &a) {
		t.Fatalf("RingDist not symmetric")
	}
	// Max and Zero are adjacent on the ring.
	if d := RingDist(&Max, &Zero).id(); d != FromUint64(1) {
		t.Fatalf("RingDist(Max, 0) = %s, want 1", d)
	}
}

func TestCloserTieBreak(t *testing.T) {
	// 4 and 6 are equidistant from 5: the tie must break deterministically
	// toward the smaller id so ownership of a key is unique.
	target := FromUint64(5)
	if !Closer(target, FromUint64(4), FromUint64(6)) {
		t.Fatalf("tie should break toward smaller id")
	}
	if Closer(target, FromUint64(6), FromUint64(4)) {
		t.Fatalf("tie break must be asymmetric")
	}
}

func TestCommonPrefixBits(t *testing.T) {
	a := MustParse("ff00000000000000000000000000000000000000")
	b := MustParse("fe00000000000000000000000000000000000000")
	if got := a.CommonPrefixBits(b); got != 7 {
		t.Fatalf("CommonPrefixBits = %d, want 7", got)
	}
	if got := a.CommonPrefixBits(a); got != Bits {
		t.Fatalf("self prefix = %d, want %d", got, Bits)
	}
}

func TestDigitExtraction(t *testing.T) {
	a := MustParse("f102030405060708090a0b0c0d0e0f1011121314")
	if got := a.Digit(0, 4); got != 0xf {
		t.Fatalf("digit 0 base 16 = %#x, want 0xf", got)
	}
	if got := a.Digit(1, 4); got != 0x1 {
		t.Fatalf("digit 1 base 16 = %#x, want 0x1", got)
	}
	if got := a.Digit(3, 4); got != 0x2 {
		t.Fatalf("digit 3 base 16 = %#x, want 0x2", got)
	}
	if got := a.Digit(0, 8); got != 0xf1 {
		t.Fatalf("digit 0 base 256 = %#x, want 0xf1", got)
	}
	if got := a.Digit(0, 1); got != 1 {
		t.Fatalf("digit 0 base 2 = %d, want 1", got)
	}
}

func TestWithDigit(t *testing.T) {
	a := Zero
	b := a.WithDigit(3, 4, 0xc)
	if got := b.Digit(3, 4); got != 0xc {
		t.Fatalf("WithDigit readback = %#x, want 0xc", got)
	}
	// Other digits untouched.
	for i := 0; i < NumDigits(4); i++ {
		if i == 3 {
			continue
		}
		if b.Digit(i, 4) != 0 {
			t.Fatalf("digit %d disturbed", i)
		}
	}
}

func TestWithDigitPanicsOnRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for out-of-range digit")
		}
	}()
	Zero.WithDigit(0, 4, 16)
}

func TestNumDigits(t *testing.T) {
	if got := NumDigits(4); got != 40 {
		t.Fatalf("NumDigits(4) = %d, want 40", got)
	}
	if got := NumDigits(1); got != 160 {
		t.Fatalf("NumDigits(1) = %d, want 160", got)
	}
}

func TestCheckBasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for base 3")
		}
	}()
	NumDigits(3)
}

// between is BetweenIncl on values, for readable cases.
func between(lo, hi, x ID) bool { return BetweenIncl(&lo, &hi, &x) }

func TestBetweenIncl(t *testing.T) {
	lo, hi := FromUint64(10), FromUint64(20)
	if !between(lo, hi, FromUint64(10)) || !between(lo, hi, FromUint64(20)) {
		t.Fatalf("endpoints must be included")
	}
	if !between(lo, hi, FromUint64(15)) {
		t.Fatalf("interior point excluded")
	}
	if between(lo, hi, FromUint64(25)) {
		t.Fatalf("exterior point included")
	}
	// Wrapped arc.
	if !between(hi, lo, FromUint64(25)) {
		t.Fatalf("wrapped arc should include 25")
	}
	if !between(hi, lo, FromUint64(5)) {
		t.Fatalf("wrapped arc should include 5")
	}
	if between(hi, lo, FromUint64(15)) {
		t.Fatalf("wrapped arc should exclude 15")
	}
}

// refBetweenIncl is BetweenIncl as it stood before it moved onto limbs:
// byte-wise Cmp, with the wrapped arc as its own case.
func refBetweenIncl(lo, hi, x ID) bool {
	if lo.Cmp(hi) <= 0 {
		return lo.Cmp(x) <= 0 && x.Cmp(hi) <= 0
	}
	return lo.Cmp(x) <= 0 || x.Cmp(hi) <= 0
}

func TestBetweenInclMatchesByteReference(t *testing.T) {
	agrees := func(lo, hi, x ID) bool {
		for _, p := range [][3]ID{{lo, hi, x}, {hi, lo, x}} {
			if got, want := between(p[0], p[1], p[2]), refBetweenIncl(p[0], p[1], p[2]); got != want {
				t.Errorf("BetweenIncl(%s, %s, %s) = %v, want %v", p[0], p[1], p[2], got, want)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100_000, Rand: rand.New(rand.NewSource(49))}
	if err := quick.Check(agrees, cfg); err != nil {
		t.Fatal(err)
	}
	one := FromUint64(1)
	h := Hash([]byte("between"))
	mid := MustParse("0000000100000000000000000000000000000000") // lowest bit of the top limb
	cases := []struct {
		name      string
		lo, hi, x ID
	}{
		{"x at lo", one, h, one},
		{"x at hi", one, h, h},
		{"just below lo", h, h.Add(mid), h.Sub(one)},
		{"just above hi", h, h.Add(mid), h.Add(mid).Add(one)},
		{"lo == hi == x", h, h, h},
		{"lo == hi, x beside", h, h, h.Add(one)},
		{"wrap, x past zero", Max.Sub(mid), mid, one},
		{"wrap, x before zero", Max.Sub(mid), mid, Max},
		{"wrap, x outside", Max.Sub(mid), mid, h},
		{"wrap, x at Zero", Max, one, Zero},
		{"Zero to Max, x anywhere", Zero, Max, h},
		{"Max to Zero, x between", Max, Zero, h},
		{"Max to Zero, x at Max", Max, Zero, Max},
		{"Zero alone", Zero, Zero, Zero},
		{"Max alone, x Zero", Max, Max, Zero},
		{"differ only in the top limb", Zero, mid, mid.Sub(one)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			agrees(c.lo, c.hi, c.x)
			agrees(c.lo, c.x, c.hi)
			agrees(c.x, c.hi, c.lo)
		})
	}
}

// --- property-based tests -------------------------------------------------

func randomID(r *rand.Rand) ID {
	var out ID
	r.Read(out[:])
	return out
}

func TestPropAddCommutative(t *testing.T) {
	f := func(x, y uint64) bool {
		a, b := FromUint64(x), FromUint64(y)
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSubInverseOfAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a, b := randomID(rng), randomID(rng)
		if a.Add(b).Sub(b) != a {
			t.Fatalf("(a+b)-b != a for a=%s b=%s", a, b)
		}
	}
}

func TestPropDistanceMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	halfTop := MustParse("8000000000000000000000000000000000000000")
	for i := 0; i < 500; i++ {
		a, b := randomID(rng), randomID(rng)
		d := RingDist(&a, &b).id()
		if d != RingDist(&b, &a).id() {
			t.Fatalf("distance asymmetric")
		}
		if a == b && d != Zero {
			t.Fatalf("d(a,a) != 0")
		}
		// Ring distance can never exceed half the ring.
		if d.Cmp(halfTop) > 0 {
			t.Fatalf("distance %s exceeds half ring", d)
		}
	}
}

func TestPropDigitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 200; i++ {
		a := randomID(rng)
		for _, b := range []int{1, 2, 4, 8} {
			pos := rng.Intn(NumDigits(b))
			digit := rng.Intn(1 << b)
			got := a.WithDigit(pos, b, digit).Digit(pos, b)
			if got != digit {
				t.Fatalf("base 2^%d pos %d: wrote %d read %d", b, pos, digit, got)
			}
		}
	}
}

func TestPropCommonPrefixConsistentWithDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 200; i++ {
		a, b := randomID(rng), randomID(rng)
		for _, base := range []int{1, 2, 4, 8} {
			n := a.CommonPrefixDigits(b, base)
			for j := 0; j < n; j++ {
				if a.Digit(j, base) != b.Digit(j, base) {
					t.Fatalf("digit %d differs inside common prefix", j)
				}
			}
			if n < NumDigits(base) && a.Digit(n, base) == b.Digit(n, base) && a != b {
				// The digit right after the common prefix may only match if
				// the ids are equal.
				if a.CommonPrefixBits(b) >= (n+1)*base {
					t.Fatalf("prefix undercounted")
				}
			}
		}
	}
}

// --- the frozen byte-wise reference ----------------------------------------
//
// refSub, refAdd, refDistance and refCloser are the arithmetic as it stood
// before ring distance moved onto machine words: one byte at a time,
// borrow carried by hand. They are kept as the definition the limb forms
// must reproduce bit for bit (goldens and routing decisions hang on it).

func refAdd(a, b ID) ID {
	var out ID
	var carry uint16
	for i := Size - 1; i >= 0; i-- {
		s := uint16(a[i]) + uint16(b[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

func refSub(a, b ID) ID {
	var out ID
	var borrow int16
	for i := Size - 1; i >= 0; i-- {
		d := int16(a[i]) - int16(b[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

func refDistance(a, b ID) ID {
	d1 := refSub(a, b)
	d2 := refSub(b, a)
	if d1.Cmp(d2) <= 0 {
		return d1
	}
	return d2
}

func refCloser(target, a, b ID) bool {
	da := refDistance(a, target)
	db := refDistance(b, target)
	if c := da.Cmp(db); c != 0 {
		return c < 0
	}
	return a.Cmp(b) < 0
}

// agreesWithRef checks every limb-built operation on one triple, in both
// argument orders, against the byte-wise reference.
func agreesWithRef(t *testing.T, target, a, b ID) bool {
	t.Helper()
	ok := true
	fail := func(op string, got, want any) {
		t.Errorf("%s: got %v, want %v (target=%s a=%s b=%s)", op, got, want, target, a, b)
		ok = false
	}
	for _, p := range [][2]ID{{a, b}, {b, a}, {a, target}, {target, b}} {
		x, y := p[0], p[1]
		if got, want := x.Add(y), refAdd(x, y); got != want {
			fail("Add", got, want)
		}
		if got, want := x.Sub(y), refSub(x, y); got != want {
			fail("Sub", got, want)
		}
		want := refDistance(x, y)
		if got := RingDist(&x, &y).id(); got != want {
			fail("RingDist", got, want)
		}
		// Less and == on distances must order exactly as Cmp on the ids
		// they stand for.
		dx, dy := RingDist(&x, &target), RingDist(&y, &target)
		c := refDistance(x, target).Cmp(refDistance(y, target))
		if dx.Less(dy) != (c < 0) || dy.Less(dx) != (c > 0) || (dx == dy) != (c == 0) {
			fail("Dist order", [2]Dist{dx, dy}, c)
		}
	}
	if got, want := Closer(target, a, b), refCloser(target, a, b); got != want {
		fail("Closer(a,b)", got, want)
	}
	if got, want := Closer(target, b, a), refCloser(target, b, a); got != want {
		fail("Closer(b,a)", got, want)
	}
	return ok
}

func TestLimbArithmeticMatchesByteReferenceRandom(t *testing.T) {
	f := func(target, a, b ID) bool { return agreesWithRef(t, target, a, b) }
	cfg := &quick.Config{MaxCount: 100_000, Rand: rand.New(rand.NewSource(47))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// Uniform triples almost never tie or share limbs; draw a second
	// family clustered round the target so distances collide in their
	// upper words and differ only low down.
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 20_000; i++ {
		target := randomID(rng)
		a := target.Add(FromUint64(rng.Uint64() >> uint(rng.Intn(64))))
		b := target.Sub(FromUint64(rng.Uint64() >> uint(rng.Intn(64))))
		if !agreesWithRef(t, target, a, b) {
			t.FailNow()
		}
	}
}

func TestLimbArithmeticMatchesByteReferenceAdversarial(t *testing.T) {
	one := FromUint64(1)
	half := MustParse("8000000000000000000000000000000000000000")
	mid := MustParse("0000000100000000000000000000000000000000") // lowest bit of the top limb
	lowOfMid := MustParse("0000000000000000000000010000000000000000")
	h := Hash([]byte("adversarial"))
	cases := []struct {
		name         string
		target, a, b ID
	}{
		{"equidistant either side", FromUint64(5), FromUint64(4), FromUint64(6)},
		{"equidistant across zero", Zero, Max, one},
		{"equidistant, far", h, h.Sub(mid), h.Add(mid)},
		{"equidistant at half the ring", h, h.Add(half), h.Sub(half)},
		{"a == b", h, one, one},
		{"target == a", h, h, h.Add(one)},
		{"target == a == b", h, h, h},
		{"wrap through zero", one, Max, FromUint64(3)},
		{"wrap, target high", Max, FromUint64(2), Max.Sub(FromUint64(4))},
		{"Zero and Max", Zero, Zero, Max},
		{"Max and Zero", Max, Zero, Max},
		{"just under half", Zero, half.Sub(one), half.Add(one)},
		{"exactly half vs just over", Zero, half, half.Add(one)},
		{"differ only in the top 32 bits", Zero, mid, mid.Add(mid)},
		{"top 32 bits, other limbs equal", h, h.Add(mid), h.Add(mid).Add(mid)},
		{"borrow across the low limb", lowOfMid, lowOfMid.Sub(one), lowOfMid.Add(one)},
		{"borrow across both limbs", mid, mid.Sub(one), one},
		{"borrow out of the top", Zero, one, Max},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { agreesWithRef(t, c.target, c.a, c.b) })
	}
	// The tie rule itself, stated rather than compared: equidistant goes
	// to the smaller plain id whichever way round it is asked.
	if !Closer(Zero, one, Max) || Closer(Zero, Max, one) {
		t.Fatal("tie across zero must go to the smaller plain id")
	}
	if Closer(h, one, one) {
		t.Fatal("nothing is strictly closer than itself")
	}
}
