package tha

import (
	"fmt"

	"tap/internal/rng"
)

// §3.5: "The chosen THAs must scatter in the DHT identifier space as far
// as possible (i.e., with different hopids' prefixes) to minimize the
// probability that a single node has the information of multiple or all
// tunnel hops of the tunnel to be formed."
//
// ChooseScattered picks l anchors from the owner's pool such that, as far
// as the pool allows, no two share their leading base-2^b digit; within
// that constraint the choice is random. It appends them to dst and returns
// the result, so a caller with room in dst allocates nothing for a pool of
// up to 16 anchors. It returns an error when the pool is smaller than l.
func ChooseScattered(dst, pool []Secret, l int, b int, stream *rng.Stream) ([]Secret, error) {
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
	//
	// The buckets are a stable counting sort of a copy of the pool: bucket
	// d is sorted[start[d]:start[d+1]], its anchors in pool order, and the
	// digits (at most 2^8) and offsets live on the stack, as does the copy
	// of a pool of up to 16 anchors. Everything is visited in ascending
	// digit order before any stream draw, so replay determinism does not
	// depend on how the buckets are stored.
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
	var sortedBuf [16]Secret
	sorted := sortedBuf[:min(len(pool), len(sortedBuf))]
	if len(pool) > len(sortedBuf) {
		sorted = make([]Secret, len(pool))
	}
	for _, s := range pool {
		d := s.HopID.Digit(0, b)
		sorted[next[d]] = s
		next[d]++
	}
	for _, d := range digits {
		// Shuffle within each bucket so repeated tunnel formation does not
		// always reuse the same anchor.
		bk := sorted[start[d]:start[d+1]]
		stream.Shuffle(len(bk), func(i, j int) { bk[i], bk[j] = bk[j], bk[i] })
	}
	stream.Shuffle(len(digits), func(i, j int) { digits[i], digits[j] = digits[j], digits[i] })

	out, want := dst, len(dst)+l
	for round := 0; len(out) < want; round++ {
		took := false
		for _, d := range digits {
			if round >= start[d+1]-start[d] {
				continue
			}
			out = append(out, sorted[start[d]+round])
			took = true
			if len(out) == want {
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

// PrefixDiversity reports how many distinct leading base-2^b digits a
// chosen anchor set spans; experiments use it to quantify the scatter
// rule's effect.
func PrefixDiversity(secrets []Secret, b int) int {
	seen := make(map[int]struct{})
	for _, s := range secrets {
		seen[s.HopID.Digit(0, b)] = struct{}{}
	}
	return len(seen)
}
