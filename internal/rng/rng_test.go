package rng

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(1)
	b := New(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split("alpha")
	c2 := root.Split("beta")
	if c1.Seed() == c2.Seed() {
		t.Fatalf("different labels produced the same child seed")
	}
	// Same label twice must be identical.
	c3 := New(7).Split("alpha")
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c3.Uint64() {
			t.Fatalf("same label produced different streams at draw %d", i)
		}
	}
}

func TestSplitNDistinct(t *testing.T) {
	root := New(9)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := root.SplitN("trial", i)
		if seen[s.Seed()] {
			t.Fatalf("duplicate child seed at index %d", i)
		}
		seen[s.Seed()] = true
	}
}

func TestSplitDoesNotConsumeParent(t *testing.T) {
	a := New(3)
	b := New(3)
	_ = a.Split("x") // must not advance a's state
	for i := 0; i < 20; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Split consumed parent state")
		}
	}
}

func TestDurationRangeMsBounds(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		ms := s.DurationRangeMs(1, 230)
		if ms < 1 || ms > 230 {
			t.Fatalf("latency %d out of [1,230]", ms)
		}
	}
}

func TestDurationRangeMsDegenerate(t *testing.T) {
	s := New(11)
	if got := s.DurationRangeMs(5, 5); got != 5 {
		t.Fatalf("degenerate range returned %d", got)
	}
}

func TestDurationRangeMsPanicsInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	New(1).DurationRangeMs(10, 5)
}

func TestPermFirstK(t *testing.T) {
	s := New(13)
	for _, tc := range []struct{ n, k int }{{10, 3}, {10, 10}, {10, 0}, {5, 9}, {10000, 5}} {
		out := s.PermFirstK(tc.n, tc.k)
		wantLen := tc.k
		if wantLen > tc.n {
			wantLen = tc.n
		}
		if len(out) != wantLen {
			t.Fatalf("n=%d k=%d: len=%d want %d", tc.n, tc.k, len(out), wantLen)
		}
		seen := map[int]bool{}
		for _, v := range out {
			if v < 0 || v >= tc.n {
				t.Fatalf("index %d out of range [0,%d)", v, tc.n)
			}
			if seen[v] {
				t.Fatalf("duplicate index %d", v)
			}
			seen[v] = true
		}
	}
}

func TestPermFirstKUniformish(t *testing.T) {
	// Each index should be selected roughly k/n of the time.
	s := New(17)
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range s.PermFirstK(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for i, c := range counts {
		ratio := float64(c) / want
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("index %d selected %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestPairwiseMsSymmetricAndBounded(t *testing.T) {
	f := func(seed, a, b uint64) bool {
		x := PairwiseMs(seed, a, b, 1, 230)
		y := PairwiseMs(seed, b, a, 1, 230)
		return x == y && x >= 1 && x <= 230
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairwiseMsVaries(t *testing.T) {
	seen := map[int]bool{}
	for i := uint64(0); i < 200; i++ {
		seen[PairwiseMs(1, 0, i, 1, 230)] = true
	}
	if len(seen) < 50 {
		t.Fatalf("pairwise latencies too concentrated: %d distinct values", len(seen))
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(19)
	const trials = 50000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / trials
	if p < 0.28 || p > 0.32 {
		t.Fatalf("Bool(0.3) hit rate %.3f", p)
	}
}

// matchSeeds returns the seeds TestStreamsMatchMathRand checks: the edges
// of math/rand's seed reduction (0, ±1, multiples of 2³¹−1 and their
// neighbours, the int64 extremes, the value 0 is replaced by), small
// seeds, and a spread of full-width ones.
func matchSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for k := int64(1); k <= 8; k++ {
		for _, d := range []int64{-1, 0, 1} {
			seeds = append(seeds, k*m+d, -k*m+d)
		}
	}
	for _, k := range []int64{math.MaxInt64 / m, math.MinInt64 / m} {
		seeds = append(seeds, k*m, k*m-1, k*m+1)
	}
	for s := int64(2); s < 1000; s++ {
		seeds = append(seeds, s)
	}
	// splitmix64 spreads the rest over the whole int64 range.
	x := uint64(0x9e3779b97f4a7c15)
	for len(seeds) < 3013 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		seeds = append(seeds, int64(z^z>>31))
	}
	return seeds
}

// TestStreamsMatchMathRand pins the generator to math/rand's: every
// figure and golden in the repository was drawn from rand.NewSource, so a
// stream must give its draws exactly, from every seed.
func TestStreamsMatchMathRand(t *testing.T) {
	const draws = 2000
	for _, seed := range matchSeeds() {
		got, want := New(uint64(seed)), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < draws; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d is %#x, math/rand gives %#x", seed, i, g, w)
			}
		}
	}

	// Every *rand.Rand method the repository calls, interleaved, so the
	// Rand's own buffered state (Read) is exercised against the source.
	for _, seed := range matchSeeds()[:200] {
		got, want := New(uint64(seed)), rand.New(rand.NewSource(seed))
		for round := 0; round < 20; round++ {
			check := func(what string, g, w any) {
				t.Helper()
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d round %d: %s gives %v, math/rand %v", seed, round, what, g, w)
				}
			}
			check("Intn", got.Intn(230), want.Intn(230))
			check("Intn(big)", got.Intn(1<<40+7), want.Intn(1<<40+7))
			check("Int63n", got.Int63n(1e12+3), want.Int63n(1e12+3))
			check("Int63", got.Int63(), want.Int63())
			check("Int", got.Int(), want.Int())
			check("Uint32", got.Uint32(), want.Uint32())
			check("Float64", got.Float64(), want.Float64())
			check("ExpFloat64", got.ExpFloat64(), want.ExpFloat64())
			check("NormFloat64", got.NormFloat64(), want.NormFloat64())
			check("Perm", got.Perm(13), want.Perm(13))
			gs, ws := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
			got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
			want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
			check("Shuffle", gs, ws)
			for _, n := range []int{1, 3, 7, 20, 33} {
				gb, wb := make([]byte, n), make([]byte, n)
				if round%2 == 0 {
					got.Bytes(gb)
				} else {
					got.Read(gb)
				}
				want.Read(wb)
				check("Read", gb, wb)
			}
		}
	}

	// A Stream, its Rand and nothing else: the source lives inside the
	// Stream, where rand.NewSource would be a third object.
	if a := testing.AllocsPerRun(100, func() { New(7) }); a > 2 {
		t.Fatalf("New allocates %.0f objects, want at most 2", a)
	}
}

func BenchmarkNewStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(uint64(i))
	}
}
