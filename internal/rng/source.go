package rng

// source is math/rand's additive lagged-Fibonacci generator (the state
// rand.NewSource returns), with the same draws for every seed; only its
// seeding is computed differently. math/rand seeds one Lehmer chain with
// a division per step, which costs about 15 µs a stream: a quarter of the
// CPU of a figure that gives every initiator its own stream. Here the
// chain's modulus is reduced Mersenne-style and three chains run side by
// side. TestStreamsMatchMathRand holds the draws to rand.NewSource's.
type source struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [rngLen]int64 // current feedback register
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime

	lehmerA  = 48271
	lehmerA3 = lehmerA * lehmerA * lehmerA % int32max
)

// mulMod returns a·x mod 2³¹−1 for a, x in [1, 2³¹−2]. The product's high
// bits fold onto its low ones (2³¹ ≡ 1); two folds leave it in range,
// since the modulus is prime and so never divides the product.
func mulMod(a, x uint64) uint64 {
	p := a * x
	r := p&int32max + p>>31
	return r&int32max + r>>31
}

// Seed sets the state rand.NewSource(seed) starts in. math/rand walks
// x ← 48271·x mod (2³¹−1) from the seed, drops 20 values and then builds
// vec[i] from x₂₁₊₃ᵢ, x₂₂₊₃ᵢ and x₂₃₊₃ᵢ, XORed with rngCooked[i]. Each of
// those three positions is its own chain stepping by 48271³, so the three
// multiplications of one row do not wait on each other.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	// x₂₁ is seven steps of 48271³ from x₀.
	a := uint64(seed)
	for range 7 {
		a = mulMod(lehmerA3, a)
	}
	b := mulMod(lehmerA, a)
	c := mulMod(lehmerA, b)
	for i := range rngLen {
		s.vec[i] = int64(a<<40^b<<20^c) ^ rngCooked[i]
		a = mulMod(lehmerA3, a)
		b = mulMod(lehmerA3, b)
		c = mulMod(lehmerA3, c)
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer, as math/rand's does.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}

	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}

	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
