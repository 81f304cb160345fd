package tha

import (
	"fmt"
	"reflect"
	"testing"

	"tap/internal/rng"
)

// referenceChooseScattered is the map-bucketed scatter rule ChooseScattered
// replaced, kept verbatim: the frozen definition of which anchors the
// counting-sort version must pick, in which order, with which draws.
func referenceChooseScattered(pool []Secret, l int, b int, stream *rng.Stream) ([]Secret, error) {
	if l <= 0 {
		return nil, fmt.Errorf("tha: tunnel length %d must be positive", l)
	}
	if len(pool) < l {
		return nil, fmt.Errorf("tha: pool of %d anchors cannot form a %d-hop tunnel", len(pool), l)
	}
	// Bucket the pool by leading digit, then draw buckets round-robin in
	// random order, taking one anchor per bucket per round. This maximizes
	// prefix diversity: duplicates of a digit are used only once all other
	// available digits are exhausted.
	buckets := make(map[int][]Secret)
	for _, s := range pool {
		d := s.HopID.Digit(0, b)
		buckets[d] = append(buckets[d], s)
	}
	digits := make([]int, 0, len(buckets))
	for d := range buckets {
		digits = append(digits, d)
	}
	// Deterministic bucket order before any stream draw: shuffling inside
	// the map iteration above would consume the stream in map order and
	// break replay determinism.
	sortInts(digits)
	for _, d := range digits {
		// Shuffle within each bucket so repeated tunnel formation does not
		// always reuse the same anchor.
		bk := buckets[d]
		stream.Shuffle(len(bk), func(i, j int) { bk[i], bk[j] = bk[j], bk[i] })
	}
	stream.Shuffle(len(digits), func(i, j int) { digits[i], digits[j] = digits[j], digits[i] })

	out := make([]Secret, 0, l)
	for round := 0; len(out) < l; round++ {
		took := false
		for _, d := range digits {
			bk := buckets[d]
			if round >= len(bk) {
				continue
			}
			out = append(out, bk[round])
			took = true
			if len(out) == l {
				break
			}
		}
		if !took {
			// Cannot happen while len(pool) >= l, but guard against an
			// infinite loop on invariant violation.
			return nil, fmt.Errorf("tha: internal scatter exhaustion")
		}
	}
	return out, nil
}

// sortInts is a tiny insertion sort; digit sets have at most 2^b members.
func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// randomPool returns n secrets with random hopids: only the leading digit
// matters to the scatter rule, and distinct hopids tell the picks apart.
func randomPool(n int, s *rng.Stream) []Secret {
	pool := make([]Secret, n)
	for i := range pool {
		s.Bytes(pool[i].HopID[:])
		s.Bytes(pool[i].PW[:])
	}
	return pool
}

// TestChooseScatteredMatchesReference: over 1 200 seeded cases — pools of
// 1 to 64 anchors, every base, tunnel lengths up to the pool size — the
// scatter rule picks the reference's anchors in the reference's order,
// leaves the stream where the reference leaves it, and never touches the
// caller's pool.
func TestChooseScatteredMatchesReference(t *testing.T) {
	bases := []int{1, 2, 4, 8}
	for c := 0; c < 1200; c++ {
		setup := rng.New(uint64(c))
		n := 1 + setup.Intn(64)
		l := 1 + setup.Intn(n)
		b := bases[c%len(bases)]
		pool := randomPool(n, setup)
		before := append([]Secret(nil), pool...)

		ref, got := rng.New(uint64(c)+1e6), rng.New(uint64(c)+1e6)
		want, err := referenceChooseScattered(append([]Secret(nil), pool...), l, b, ref)
		if err != nil {
			t.Fatalf("case %d: reference: %v", c, err)
		}
		chosen, err := ChooseScattered(nil, pool, l, b, got)
		if err != nil {
			t.Fatalf("case %d (n=%d l=%d b=%d): %v", c, n, l, b, err)
		}
		if !reflect.DeepEqual(chosen, want) {
			t.Fatalf("case %d (n=%d l=%d b=%d): picks differ from the reference", c, n, l, b)
		}
		if g, w := got.Int63(), ref.Int63(); g != w {
			t.Fatalf("case %d (n=%d l=%d b=%d): stream left at draw %d, reference at %d", c, n, l, b, g, w)
		}
		if !reflect.DeepEqual(pool, before) {
			t.Fatalf("case %d (n=%d l=%d b=%d): caller's pool was modified", c, n, l, b)
		}
	}
}

// countingSortChooseScattered is the counting-sort scatter rule as it was
// before it appended to a caller's slice and kept small pools' copy on the
// stack, kept verbatim: the frozen definition TestChooseScatteredMatchesHeapCopy
// holds the in-place version to, across the 16-anchor stack boundary.
func countingSortChooseScattered(pool []Secret, l int, b int, stream *rng.Stream) ([]Secret, error) {
	if l <= 0 {
		return nil, fmt.Errorf("tha: tunnel length %d must be positive", l)
	}
	if len(pool) < l {
		return nil, fmt.Errorf("tha: pool of %d anchors cannot form a %d-hop tunnel", len(pool), l)
	}
	var start [1<<8 + 1]int
	for _, s := range pool {
		start[s.HopID.Digit(0, b)+1]++
	}
	var digitBuf [1 << 8]int
	digits := digitBuf[:0]
	for d := 0; d < 1<<b; d++ {
		if start[d+1] > 0 {
			digits = append(digits, d)
		}
		start[d+1] += start[d]
	}
	next := start
	sorted := make([]Secret, len(pool))
	for _, s := range pool {
		d := s.HopID.Digit(0, b)
		sorted[next[d]] = s
		next[d]++
	}
	for _, d := range digits {
		bk := sorted[start[d]:start[d+1]]
		stream.Shuffle(len(bk), func(i, j int) { bk[i], bk[j] = bk[j], bk[i] })
	}
	stream.Shuffle(len(digits), func(i, j int) { digits[i], digits[j] = digits[j], digits[i] })

	out := make([]Secret, 0, l)
	for round := 0; len(out) < l; round++ {
		took := false
		for _, d := range digits {
			if round >= start[d+1]-start[d] {
				continue
			}
			out = append(out, sorted[start[d]+round])
			took = true
			if len(out) == l {
				break
			}
		}
		if !took {
			return nil, fmt.Errorf("tha: internal scatter exhaustion")
		}
	}
	return out, nil
}

// TestChooseScatteredMatchesHeapCopy: for pools of 1 to 40 anchors, tunnel
// lengths 1 to 8, every base and five seeds, ChooseScattered appends the
// frozen heap-copy version's picks, in its order, after whatever dst held,
// and leaves the stream where that version leaves it.
func TestChooseScatteredMatchesHeapCopy(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for l := 1; l <= min(n, 8); l++ {
			for _, b := range []int{1, 2, 4, 8} {
				for seed := uint64(0); seed < 5; seed++ {
					pool := randomPool(n, rng.New(seed<<16|uint64(n)))
					ref, got := rng.New(seed+1e6), rng.New(seed+1e6)
					want, err := countingSortChooseScattered(pool, l, b, ref)
					if err != nil {
						t.Fatalf("n=%d l=%d b=%d seed %d: frozen version: %v", n, l, b, seed, err)
					}
					prefix := randomPool(int(seed), rng.New(seed))
					dst := append(make([]Secret, 0, len(prefix)+l), prefix...)
					chosen, err := ChooseScattered(dst, pool, l, b, got)
					if err != nil {
						t.Fatalf("n=%d l=%d b=%d seed %d: %v", n, l, b, seed, err)
					}
					if !reflect.DeepEqual(chosen[:len(prefix)], prefix) || !reflect.DeepEqual(chosen[len(prefix):], want) {
						t.Fatalf("n=%d l=%d b=%d seed %d: picks differ from the frozen version", n, l, b, seed)
					}
					if g, w := got.Int63(), ref.Int63(); g != w {
						t.Fatalf("n=%d l=%d b=%d seed %d: stream left at draw %d, frozen version at %d", n, l, b, seed, g, w)
					}
				}
			}
		}
	}
}

// TestChooseScatteredAllocs: the buckets are a counting sort with its
// offsets on the stack, so a call with room in dst allocates nothing for a
// pool of up to 16 anchors, whose copy is on the stack too, and only the
// copy above that, nothing per anchor or per bucket, at any pool size.
func TestChooseScatteredAllocs(t *testing.T) {
	for _, n := range []int{1, 16, 17, 64, 256} {
		pool := randomPool(n, rng.New(uint64(n)))
		s := rng.New(7)
		dst := make([]Secret, 0, 5)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ChooseScattered(dst, pool, min(n, 5), 4, s); err != nil {
				t.Fatal(err)
			}
		})
		want := 0.0
		if n > 16 {
			want = 1
		}
		if allocs > want {
			t.Fatalf("ChooseScattered over %d anchors: %.1f allocations per call, want ≤ %.0f", n, allocs, want)
		}
	}
}
