package id

import (
	"math/rand"
	"testing"
)

func TestPrefixFloorCeil(t *testing.T) {
	a := MustParse("abcdef0123456789abcdef0123456789abcdef01")
	if got := a.PrefixFloor(8); got != MustParse("ab00000000000000000000000000000000000000") {
		t.Fatalf("PrefixFloor(8) = %s", got)
	}
	if got := a.PrefixCeil(8); got != MustParse("abffffffffffffffffffffffffffffffffffffff") {
		t.Fatalf("PrefixCeil(8) = %s", got)
	}
	if got := a.PrefixFloor(4); got != MustParse("a000000000000000000000000000000000000000") {
		t.Fatalf("PrefixFloor(4) = %s", got)
	}
	if got := a.PrefixCeil(4); got != MustParse("afffffffffffffffffffffffffffffffffffffff") {
		t.Fatalf("PrefixCeil(4) = %s", got)
	}
}

func TestPrefixClamps(t *testing.T) {
	a := Hash([]byte("x"))
	if a.PrefixFloor(0) != Zero || a.PrefixCeil(0) != Max {
		t.Fatalf("n=0 should span the whole ring")
	}
	if a.PrefixFloor(Bits) != a || a.PrefixCeil(Bits) != a {
		t.Fatalf("n=Bits should pin the exact id")
	}
	if a.PrefixFloor(Bits+10) != a || a.PrefixCeil(-3) != Max {
		t.Fatalf("out-of-range n not clamped")
	}
}

func TestPrefixFloorLeCeil(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		a := randomID(rng)
		n := rng.Intn(Bits + 1)
		lo, hi := a.PrefixFloor(n), a.PrefixCeil(n)
		if lo.Cmp(a) > 0 || a.Cmp(hi) > 0 {
			t.Fatalf("a=%s not within [floor,ceil] at n=%d", a, n)
		}
		if lo.CommonPrefixBits(a) < n && n <= Bits {
			t.Fatalf("floor does not share %d bits", n)
		}
		if hi.CommonPrefixBits(a) < n && n <= Bits {
			t.Fatalf("ceil does not share %d bits", n)
		}
	}
}

func TestDigitRange(t *testing.T) {
	a := MustParse("a000000000000000000000000000000000000000")
	lo, hi := a.DigitRange(1, 4, 0x7)
	if lo != MustParse("a700000000000000000000000000000000000000") {
		t.Fatalf("lo = %s", lo)
	}
	if hi != MustParse("a7ffffffffffffffffffffffffffffffffffffff") {
		t.Fatalf("hi = %s", hi)
	}
}

func TestDigitRangeMembership(t *testing.T) {
	// Any id inside [lo,hi] shares the first row digits with a and has
	// digit d at row — the defining property of a routing-table slot.
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		a := randomID(rng)
		row := rng.Intn(10)
		d := rng.Intn(16)
		lo, hi := a.DigitRange(row, 4, d)
		// Sample a member by filling suffix bits randomly.
		m := lo
		for j := (row + 1) / 2; j < Size; j++ {
			m[j] = byte(rng.Intn(256))
		}
		m = m.PrefixFloor((row + 1) * 4).Add(m.Sub(m.PrefixFloor((row + 1) * 4)))
		if !BetweenIncl(&lo, &hi, &m) {
			continue // construction above may overflow; skip rare cases
		}
		if m.CommonPrefixDigits(a, 4) < row {
			t.Fatalf("member %s shares fewer than %d digits with %s", m, row, a)
		}
		if m.Digit(row, 4) != d {
			t.Fatalf("member digit = %d, want %d", m.Digit(row, 4), d)
		}
	}
}
