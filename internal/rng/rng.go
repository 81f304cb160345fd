// Package rng provides the deterministic randomness plumbing for the whole
// simulation.
//
// Every experiment trial in this repository must be a pure function of
// (seed, parameters): the paper's figures are Monte-Carlo estimates, and we
// want each point to be re-runnable bit-for-bit. This package therefore
// wraps math/rand behind named, splittable streams — a parent stream can
// derive an independent child stream from a label, so concurrent trial
// workers never share state and adding a new consumer of randomness does
// not perturb existing ones.
//
// Nothing in the library may call the global math/rand functions or read
// wall-clock time; all randomness flows from a *Stream.
package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// Stream is a deterministic random stream. It wraps *rand.Rand and adds
// labeled splitting. A Stream is not safe for concurrent use; split one
// child per goroutine instead.
type Stream struct {
	*rand.Rand
	seed uint64
}

// New returns a Stream rooted at seed.
func New(seed uint64) *Stream {
	return &Stream{
		Rand: rand.New(rand.NewSource(int64(seed))),
		seed: seed,
	}
}

// Seed returns the seed this stream was rooted at.
func (s *Stream) Seed() uint64 { return s.seed }

// mix hashes a label and an index into a child seed. FNV-1a is cheap,
// stable across runs and platforms, and collision-resistant enough for
// seed derivation (we never derive more than a few million children).
func mix(seed uint64, label string, idx uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	h.Write(buf[:])
	h.Write([]byte(label))
	binary.BigEndian.PutUint64(buf[:], idx)
	h.Write(buf[:])
	return h.Sum64()
}

// Split derives an independent child stream identified by label. Two
// children with different labels are statistically independent; the same
// label always yields the same child.
func (s *Stream) Split(label string) *Stream {
	return New(mix(s.seed, label, 0))
}

// SplitN derives the idx-th independent child stream for label. Use this
// to hand one stream to each of N parallel trial workers.
func (s *Stream) SplitN(label string, idx int) *Stream {
	return New(mix(s.seed, label, uint64(idx)))
}

// Bytes fills p with random bytes.
func (s *Stream) Bytes(p []byte) {
	// rand.Rand.Read never returns an error.
	s.Read(p)
}

// DurationRangeMs returns a uniformly random integer number of
// milliseconds in [lo, hi], as used by the paper's link-latency model
// ("a random latency from 1 ms to 230 ms").
func (s *Stream) DurationRangeMs(lo, hi int) int {
	if hi < lo {
		panic("rng: inverted range")
	}
	return lo + s.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.Float64() < p }

// PermFirstK returns k distinct indices drawn uniformly from [0, n),
// using a partial Fisher-Yates so picking a few nodes out of 10^4 does
// not shuffle the whole range.
func (s *Stream) PermFirstK(n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	// For small k relative to n, rejection sampling beats allocating n ints.
	if k*8 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := s.Intn(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// PairwiseMs returns a deterministic pseudo-random latency in [lo, hi]
// milliseconds for the unordered pair (a, b), derived from seed. It lets a
// 10^4-node network have stable per-link latencies without storing an
// O(N^2) matrix. The latency is symmetric: PairwiseMs(s,a,b) ==
// PairwiseMs(s,b,a).
func PairwiseMs(seed uint64, a, b uint64, lo, hi int) int {
	if a > b {
		a, b = b, a
	}
	h := fnv.New64a()
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:], seed)
	binary.BigEndian.PutUint64(buf[8:], a)
	binary.BigEndian.PutUint64(buf[16:], b)
	h.Write(buf[:])
	span := uint64(hi - lo + 1)
	return lo + int(h.Sum64()%span)
}
