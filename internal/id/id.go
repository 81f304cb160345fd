// Package id implements the 160-bit circular identifier space shared by
// nodes, keys, and tunnel hop anchors.
//
// TAP (Zhu & Hu, ICPP 2004) anchors every tunnel hop at a DHT key; the DHT
// is Pastry-style, so identifiers are fixed-width unsigned integers on a
// ring, compared numerically and grouped by base-2^b digit prefixes. The
// paper uses SHA-1 for identifier derivation, which fixes the width at 160
// bits; this package keeps that width and provides the arithmetic the rest
// of the system needs: ordering, ring distance, numeric closeness, digit
// extraction, and prefix comparison.
//
// An ID is a value type ([Size]byte, big-endian). All operations are pure
// and allocation-free unless documented otherwise.
package id

import (
	"cmp"
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
)

// Size is the identifier width in bytes (160 bits, the SHA-1 digest size).
const Size = 20

// Bits is the identifier width in bits.
const Bits = Size * 8

// ID is a 160-bit unsigned integer on the identifier ring, stored
// big-endian: ID[0] holds the most significant byte.
type ID [Size]byte

// Zero is the all-zero identifier.
var Zero ID

// Max is the all-ones identifier, the largest value on the ring.
var Max = ID{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

// Hash derives an identifier by hashing the concatenation of the given
// byte slices with SHA-1, the derivation function the paper specifies for
// hopids (hopid = H(nodeID, hkey, t)).
func Hash(parts ...[]byte) ID {
	h := sha1.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out ID
	h.Sum(out[:0])
	return out
}

// HashString is Hash over the UTF-8 bytes of s, a convenience for naming
// files and nodes in examples and tests.
func HashString(s string) ID {
	return Hash([]byte(s))
}

// FromUint64 places v in the low-order 64 bits of an otherwise zero
// identifier. It is mainly useful in tests, where small ids keep failure
// messages readable.
func FromUint64(v uint64) ID {
	var out ID
	binary.BigEndian.PutUint64(out[Size-8:], v)
	return out
}

// Low64 returns the low-order 64 bits of the identifier.
func (a ID) Low64() uint64 {
	return binary.BigEndian.Uint64(a[Size-8:])
}

// Parse decodes a 40-digit hexadecimal string.
func Parse(s string) (ID, error) {
	var out ID
	if len(s) != 2*Size {
		return out, fmt.Errorf("id: bad length %d, want %d hex digits", len(s), 2*Size)
	}
	if _, err := hex.Decode(out[:], []byte(s)); err != nil {
		return out, fmt.Errorf("id: %w", err)
	}
	return out, nil
}

// MustParse is Parse that panics on malformed input; for tests and
// constants.
func MustParse(s string) ID {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// String renders the identifier as 40 lowercase hex digits.
func (a ID) String() string {
	return hex.EncodeToString(a[:])
}

// Short renders the leading 8 hex digits, enough to tell ids apart in logs
// at the network sizes this repo simulates.
func (a ID) Short() string {
	return hex.EncodeToString(a[:4])
}

// IsZero reports whether a is the all-zero identifier.
func (a ID) IsZero() bool {
	return a == Zero
}

// Cmp compares a and b as 160-bit unsigned integers, returning -1, 0, or 1.
// It backs the overlay's index sort and every probe of its binary
// searches, so it compares three words rather than calling bytes.Compare.
func (a ID) Cmp(b ID) int {
	x, y := limbs(&a), limbs(&b)
	if x.hi != y.hi {
		return cmp.Compare(x.hi, y.hi)
	}
	if x.mid != y.mid {
		return cmp.Compare(x.mid, y.mid)
	}
	return cmp.Compare(x.lo, y.lo)
}

// Less reports a < b in plain (non-ring) unsigned order.
func (a ID) Less(b ID) bool {
	return a.Cmp(b) < 0
}

// Dist is a ring distance — or any 160-bit value being subtracted or
// compared — held as three machine words instead of twenty bytes: the top
// 32 bits in hi, then two 64-bit limbs, most significant first. Routing
// evaluates "numerically closest" for every leaf-set member at every
// overlay hop, so the distance has to be computable once per candidate, in
// registers, and comparable with == and Less. ID itself stays [Size]byte:
// map keys, the wire codec and the goldens depend on that layout.
type Dist struct {
	hi      uint32
	mid, lo uint64
}

// limbs loads a's big-endian bytes into words.
func limbs(a *ID) Dist {
	return Dist{
		hi:  binary.BigEndian.Uint32(a[:4]),
		mid: binary.BigEndian.Uint64(a[4:12]),
		lo:  binary.BigEndian.Uint64(a[12:]),
	}
}

// id stores d back as big-endian bytes.
func (d Dist) id() ID {
	var out ID
	binary.BigEndian.PutUint32(out[:4], d.hi)
	binary.BigEndian.PutUint64(out[4:12], d.mid)
	binary.BigEndian.PutUint64(out[12:], d.lo)
	return out
}

// sub returns d-e mod 2^160; the top limb wraps at 32 bits on its own.
func (d Dist) sub(e Dist) Dist {
	lo, borrow := bits.Sub64(d.lo, e.lo, 0)
	mid, borrow := bits.Sub64(d.mid, e.mid, borrow)
	return Dist{hi: d.hi - e.hi - uint32(borrow), mid: mid, lo: lo}
}

// Less reports d < e as 160-bit unsigned integers.
func (d Dist) Less(e Dist) bool {
	if d.hi != e.hi {
		return d.hi < e.hi
	}
	if d.mid != e.mid {
		return d.mid < e.mid
	}
	return d.lo < e.lo
}

// RingDist returns the circular distance between a and b: the shorter of
// the clockwise and counterclockwise walks. This is the metric the paper
// means by "numerically closest". One subtraction gives one way round; when
// that is more than half the ring (top bit set) its negation is the other.
//
// It takes pointers because it is too big to inline: an ID passed by value
// is stored to the callee's frame in one shape and loaded back as limbs in
// another, which stalls on store forwarding and more than doubled the cost
// of a leaf-set scan.
func RingDist(a, b *ID) Dist {
	d := limbs(a).sub(limbs(b))
	if d.hi>>31 != 0 {
		return Dist{}.sub(d)
	}
	return d
}

// Add returns a+b mod 2^160.
func (a ID) Add(b ID) ID {
	x, y := limbs(&a), limbs(&b)
	lo, carry := bits.Add64(x.lo, y.lo, 0)
	mid, carry := bits.Add64(x.mid, y.mid, carry)
	return Dist{hi: x.hi + y.hi + uint32(carry), mid: mid, lo: lo}.id()
}

// Sub returns a-b mod 2^160.
func (a ID) Sub(b ID) ID {
	return limbs(&a).sub(limbs(&b)).id()
}

// Closer reports whether a is strictly closer to target than b is, with a
// deterministic tie-break on the smaller plain value so that "the
// numerically closest node" is always unique.
func Closer(target, a, b ID) bool {
	da, db := RingDist(&a, &target), RingDist(&b, &target)
	if da != db {
		return da.Less(db)
	}
	return a.Less(b)
}

// CommonPrefixBits returns the number of leading bits a and b share.
func (a ID) CommonPrefixBits(b ID) int {
	for i := 0; i < Size; i++ {
		x := a[i] ^ b[i]
		if x != 0 {
			n := 0
			for x&0x80 == 0 {
				n++
				x <<= 1
			}
			return i*8 + n
		}
	}
	return Bits
}

// ErrBadBase signals a digit base outside the supported range.
var ErrBadBase = errors.New("id: digit base must divide 8 (1, 2, 4, or 8 bits)")

// checkBase panics unless b is a supported digit width. Pastry's parameter
// b is a configuration constant, so a bad value is a programming error,
// not a runtime condition.
func checkBase(b int) {
	switch b {
	case 1, 2, 4, 8:
	default:
		panic(ErrBadBase)
	}
}

// NumDigits returns the number of base-2^b digits in an identifier.
func NumDigits(b int) int {
	checkBase(b)
	return Bits / b
}

// Digit extracts the i-th base-2^b digit (0 = most significant).
func (a ID) Digit(i, b int) int {
	checkBase(b)
	bitOff := i * b
	byteOff := bitOff / 8
	shift := 8 - b - (bitOff % 8)
	return int(a[byteOff]>>shift) & ((1 << b) - 1)
}

// WithDigit returns a copy of a with the i-th base-2^b digit replaced.
func (a ID) WithDigit(i, b, digit int) ID {
	checkBase(b)
	if digit < 0 || digit >= 1<<b {
		panic(fmt.Sprintf("id: digit %d out of range for base 2^%d", digit, b))
	}
	bitOff := i * b
	byteOff := bitOff / 8
	shift := 8 - b - (bitOff % 8)
	mask := byte((1<<b)-1) << shift
	out := a
	out[byteOff] = (out[byteOff] &^ mask) | byte(digit<<shift)
	return out
}

// CommonPrefixDigits returns the number of leading base-2^b digits a and b
// share; the quantity Pastry routes on.
func (a ID) CommonPrefixDigits(b2 ID, b int) int {
	checkBase(b)
	return a.CommonPrefixBits(b2) / b
}

// BetweenIncl reports whether x lies on the clockwise arc from lo to hi,
// inclusive of both endpoints. When lo == hi the arc is the single point.
// Measured clockwise from lo, x is on the arc when it is no farther than
// hi, which holds whether or not the arc wraps around zero. It takes
// pointers for RingDist's reason: Pastry asks it at every overlay hop.
func BetweenIncl(lo, hi, x *ID) bool {
	l := limbs(lo)
	return !limbs(hi).sub(l).Less(limbs(x).sub(l))
}
