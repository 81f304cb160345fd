package secroute

import (
	"errors"
	"testing"

	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
)

func build(t testing.TB, n int, seed uint64) (*pastry.Overlay, *rng.Stream) {
	t.Helper()
	root := rng.New(seed)
	ov, err := pastry.Build(pastry.DefaultConfig(), n, root.Split("overlay"))
	if err != nil {
		t.Fatal(err)
	}
	return ov, root.Split("test")
}

func TestDivMulSmall(t *testing.T) {
	v := id.FromUint64(1000)
	if got := divSmall(v, 8); got != id.FromUint64(125) {
		t.Fatalf("div = %s", got)
	}
	if got := mulSmall(id.FromUint64(125), 8); got != id.FromUint64(1000) {
		t.Fatalf("mul = %s", got)
	}
	// Saturation.
	if got := mulSmall(id.Max, 2); got != id.Max {
		t.Fatalf("mul overflow should saturate, got %s", got)
	}
	// Big-value division round trip within rounding error.
	big := id.MustParse("8000000000000000000000000000000000000000")
	q := divSmall(big, 3)
	back := mulSmall(q, 3)
	if back.Distance(big).Cmp(id.FromUint64(4)) > 0 {
		t.Fatalf("div/mul drifted: %s vs %s", back, big)
	}
}

func TestDivSmallPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	divSmall(id.Max, 0)
}

func TestDensityTestAcceptsTrueOwner(t *testing.T) {
	ov, s := build(t, 500, 1)
	r := NewRouter(ov, NewAdversary())
	for i := 0; i < 200; i++ {
		var key id.ID
		s.Bytes(key[:])
		src := ov.RandomLive(s)
		owner := ov.OwnerOf(key)
		if !r.PassesDensityTest(src, key, owner.Ref()) {
			t.Fatalf("true owner rejected for key %s (distance %s)", key.Short(), owner.ID().Distance(key).Short())
		}
	}
}

func TestDensityTestRejectsDistantImpostor(t *testing.T) {
	ov, s := build(t, 500, 2)
	r := NewRouter(ov, NewAdversary())
	rejected, total := 0, 0
	for i := 0; i < 200; i++ {
		var key id.ID
		s.Bytes(key[:])
		src := ov.RandomLive(s)
		// An impostor: a random node, almost surely far from the key.
		impostor := ov.RandomLive(s)
		if impostor.ID() == ov.OwnerOf(key).ID() {
			continue
		}
		total++
		if !r.PassesDensityTest(src, key, impostor.Ref()) {
			rejected++
		}
	}
	if float64(rejected) < 0.95*float64(total) {
		t.Fatalf("only %d/%d distant impostors rejected", rejected, total)
	}
}

// ringEnds returns the live nodes with the smallest, middle and largest
// plain ids. The two ends have leaf sets that straddle zero.
func ringEnds(ov *pastry.Overlay) (first, mid, last *pastry.Node) {
	refs := ov.LiveRefs()
	return ov.Node(refs[0].Addr), ov.Node(refs[len(refs)/2].Addr), ov.Node(refs[len(refs)-1].Addr)
}

func TestMeanSpacingSameEitherSideOfZero(t *testing.T) {
	// A leaf set is an arc of the ring, not an interval of the number
	// line: a node whose neighbours wrap past zero must estimate the same
	// density as one in the middle of id space.
	ov, _ := build(t, 1000, 3)
	first, mid, last := ringEnds(ov)
	ref := meanSpacing(mid)
	for _, n := range []*pastry.Node{first, last} {
		got := meanSpacing(n)
		if got.Cmp(mulSmall(ref, 2)) > 0 || mulSmall(got, 2).Cmp(ref) < 0 {
			t.Errorf("spacing at %s = %s, more than 2x off mid-ring %s", n.ID().Short(), got, ref)
		}
	}
}

func TestMeanSpacingWholeRingWhenSideShort(t *testing.T) {
	// With no more than L nodes the leaf set is the whole ring (Covers'
	// rule), so the estimate is the ring divided by the node count —
	// wherever on the ring the node sits.
	ov, _ := build(t, 10, 4)
	want := divSmall(id.Max, 10)
	for _, r := range ov.LiveRefs() {
		if got := meanSpacing(ov.Node(r.Addr)); got != want {
			t.Errorf("spacing at %s = %s, want ring/10 = %s", r.ID.Short(), got, want)
		}
	}
	solo, _ := build(t, 1, 5)
	if got := meanSpacing(solo.Node(solo.LiveRefs()[0].Addr)); got != id.Max {
		t.Errorf("a lone node's spacing = %s, want the whole ring", got)
	}
}

func TestDensityTestRejectsDistantImpostorFromZeroStraddlingSource(t *testing.T) {
	ov, _ := build(t, 1000, 3)
	r := NewRouter(ov, NewAdversary())
	first, _, last := ringEnds(ov)
	key := id.MustParse("4000000000000000000000000000000000000000")
	far := ov.OwnerOf(id.MustParse("7000000000000000000000000000000000000000"))
	for _, src := range []*pastry.Node{first, last} {
		if r.PassesDensityTest(src, key, far.Ref()) {
			t.Errorf("source %s accepted an impostor 3/16 of the ring from the key", src.ID().Short())
		}
		if owner := ov.OwnerOf(key); !r.PassesDensityTest(src, key, owner.Ref()) {
			t.Errorf("source %s rejected the true owner", src.ID().Short())
		}
	}
}

func TestLookupNoAdversary(t *testing.T) {
	ov, s := build(t, 400, 3)
	r := NewRouter(ov, NewAdversary())
	for i := 0; i < 100; i++ {
		var key id.ID
		s.Bytes(key[:])
		res, err := r.Lookup(ov.RandomLive(s).Ref().Addr, key)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Honest {
			t.Fatalf("clean overlay returned dishonest owner")
		}
		if res.Attempts != 1 {
			t.Fatalf("clean overlay needed %d attempts", res.Attempts)
		}
	}
}

func TestLookupHijackedPrimaryRecovered(t *testing.T) {
	// Place a malicious node on the primary route; redundant routing must
	// still find the true owner.
	ov, s := build(t, 500, 4)
	adv := NewAdversary()
	r := NewRouter(ov, adv)
	r.AlwaysVerify = true // anchor-lookup mode: defeat near-target hijacks too
	recovered, hijackable := 0, 0
	for i := 0; i < 150; i++ {
		var key id.ID
		s.Bytes(key[:])
		src := ov.RandomLive(s)
		path, err := ov.RoutePath(src.Ref().Addr, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) < 3 {
			continue // no interior router to corrupt
		}
		hijackable++
		adv2 := NewAdversary()
		adv2.Mark(path[1].Addr) // first interior router is malicious
		r.Adv = adv2
		res, err := r.Lookup(src.Ref().Addr, key)
		if err != nil {
			continue
		}
		if res.Honest {
			recovered++
			if res.Attempts < 2 {
				t.Fatalf("recovered without redundant attempts?")
			}
		}
	}
	if hijackable == 0 {
		t.Skip("no multi-hop routes sampled")
	}
	if float64(recovered) < 0.9*float64(hijackable) {
		t.Fatalf("recovered only %d/%d hijacked lookups", recovered, hijackable)
	}
}

func TestLookupSuccessDegradesGracefully(t *testing.T) {
	// With p malicious routers, secure lookup should succeed far more
	// often than the single-route baseline.
	ov, s := build(t, 600, 5)
	adv := NewAdversary()
	adv.MarkFraction(ov, 0.2, s.Split("mark"))

	secure := NewRouter(ov, adv)
	naive := NewRouter(ov, adv)
	naive.MaxRedundant = 0

	var secureOK, naiveOK, trials int
	keyStream := s.Split("keys")
	for i := 0; i < 200; i++ {
		var key id.ID
		keyStream.Bytes(key[:])
		src := ov.RandomLive(keyStream)
		if adv.IsMalicious(src.Ref().Addr) {
			continue // malicious sources are out of scope
		}
		trials++
		if res, err := secure.Lookup(src.Ref().Addr, key); err == nil && res.Honest {
			secureOK++
		}
		if res, err := naive.Lookup(src.Ref().Addr, key); err == nil && res.Honest {
			naiveOK++
		}
	}
	if trials == 0 {
		t.Fatal("no trials")
	}
	secRate := float64(secureOK) / float64(trials)
	naiveRate := float64(naiveOK) / float64(trials)
	if secRate <= naiveRate {
		t.Fatalf("secure routing (%.2f) not better than naive (%.2f)", secRate, naiveRate)
	}
	if secRate < 0.85 {
		t.Fatalf("secure routing success only %.2f at p=0.2", secRate)
	}
}

func TestLookupCensoredWhenSurrounded(t *testing.T) {
	// If every leaf-set neighbor of the source is malicious and so is the
	// primary path, the lookup is censored — and reported as such rather
	// than silently hijacked.
	ov, s := build(t, 300, 6)
	adv := NewAdversary()
	src := ov.RandomLive(s)
	for _, nb := range src.Leaf.Members() {
		adv.Mark(nb.Addr)
	}
	// Also corrupt everything else except the source, so any route is
	// hijacked immediately.
	for _, ref := range ov.LiveRefs() {
		if ref.ID != src.ID() {
			adv.Mark(ref.Addr)
		}
	}
	r := NewRouter(ov, adv)
	// A key at the source's antipode: far from src's whole neighborhood,
	// so no nearby malicious claimant can slip under the density test.
	key := src.ID().Add(id.MustParse("8000000000000000000000000000000000000000"))
	if ov.OwnerOf(key).ID() == src.ID() {
		t.Skip("source owns its own antipode; degenerate draw")
	}
	_, err := r.Lookup(src.Ref().Addr, key)
	if !errors.Is(err, ErrCensored) {
		t.Fatalf("err = %v, want ErrCensored", err)
	}
}

func TestLookupFromDeadNode(t *testing.T) {
	ov, s := build(t, 100, 7)
	r := NewRouter(ov, NewAdversary())
	n := ov.RandomLive(s)
	if err := ov.Fail(n.Ref().Addr); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup(n.Ref().Addr, id.HashString("k")); err == nil {
		t.Fatalf("lookup from dead node accepted")
	}
	if _, err := r.Lookup(simnet.Addr(10_000), id.HashString("k")); err == nil {
		t.Fatalf("lookup from unknown addr accepted")
	}
}

func TestAdversaryMarkFraction(t *testing.T) {
	ov, s := build(t, 200, 8)
	adv := NewAdversary()
	if got := adv.MarkFraction(ov, 0.25, s); got != 50 {
		t.Fatalf("marked %d", got)
	}
	if adv.Count() != 50 {
		t.Fatalf("count %d", adv.Count())
	}
}

// TestLookupAllocs: a verified lookup walks its redundant routes over the
// source's leaf set in place, so the result record is its one allocation.
func TestLookupAllocs(t *testing.T) {
	ov, s := build(t, 400, 9)
	adv := NewAdversary()
	adv.MarkFraction(ov, 0.1, s.Split("mark"))
	r := NewRouter(ov, adv)
	r.AlwaysVerify = true
	src := ov.RandomLive(s)
	for adv.IsMalicious(src.Ref().Addr) {
		src = ov.RandomLive(s)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var key id.ID
		s.Bytes(key[:])
		if _, err := r.Lookup(src.Ref().Addr, key); err != nil && !errors.Is(err, ErrCensored) {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("a verified lookup makes %.0f allocations, want ≤ 1", allocs)
	}
}
