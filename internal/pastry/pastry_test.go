package pastry

import (
	"math"
	"sort"
	"testing"

	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/simnet"
)

func build(t testing.TB, n int, seed uint64) *Overlay {
	t.Helper()
	o, err := Build(DefaultConfig(), n, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestBuildInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 17, 100, 500} {
		o := build(t, n, 1)
		if o.Size() != n {
			t.Fatalf("n=%d: size %d", n, o.Size())
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	if _, err := Build(Config{B: 3, LeafSize: 16}, 10, rng.New(1)); err == nil {
		t.Fatalf("B=3 accepted")
	}
	if _, err := Build(Config{B: 4, LeafSize: 7}, 10, rng.New(1)); err == nil {
		t.Fatalf("odd leaf size accepted")
	}
	if _, err := Build(DefaultConfig(), 0, rng.New(1)); err == nil {
		t.Fatalf("empty network accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := build(t, 50, 7)
	b := build(t, 50, 7)
	ra, rb := a.LiveRefs(), b.LiveRefs()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("build not deterministic at %d", i)
		}
	}
}

func TestRoutingReachesOwner(t *testing.T) {
	o := build(t, 300, 2)
	s := rng.New(3)
	for trial := 0; trial < 500; trial++ {
		var key id.ID
		s.Bytes(key[:])
		from := o.RandomLive(s)
		got, _, err := o.Lookup(from.ref.Addr, key)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := o.OwnerOf(key)
		if got.ID() != want.ID() {
			t.Fatalf("trial %d: routed to %s, owner is %s", trial, got.ID().Short(), want.ID().Short())
		}
	}
}

func TestRoutingHopCountLogarithmic(t *testing.T) {
	// Pastry promises ~log_{2^b} N hops. For N=1000 and b=4 that is ~2.5;
	// allow generous slack but catch linear behaviour.
	o := build(t, 1000, 4)
	s := rng.New(5)
	total := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		var key id.ID
		s.Bytes(key[:])
		_, hops, err := o.Lookup(o.RandomLive(s).ref.Addr, key)
		if err != nil {
			t.Fatal(err)
		}
		total += hops
	}
	mean := float64(total) / trials
	expect := math.Log(1000) / math.Log(16)
	if mean > expect*2+2 {
		t.Fatalf("mean hops %.2f far above log_16(N)=%.2f", mean, expect)
	}
	if mean < 0.5 {
		t.Fatalf("mean hops %.2f suspiciously low", mean)
	}
}

func TestRoutingFromSelf(t *testing.T) {
	o := build(t, 50, 6)
	n := o.RandomLive(rng.New(1))
	got, hops, err := o.Lookup(n.ref.Addr, n.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got != n || hops != 0 {
		t.Fatalf("routing to own id should deliver locally, got %v in %d hops", got.ID().Short(), hops)
	}
}

func TestSingleNodeDeliversEverything(t *testing.T) {
	o := build(t, 1, 9)
	n := o.RandomLive(rng.New(1))
	got, hops, err := o.Lookup(n.ref.Addr, id.HashString("anything"))
	if err != nil {
		t.Fatal(err)
	}
	if got != n || hops != 0 {
		t.Fatalf("single node must own all keys")
	}
}

// byDistance returns the live ids ordered by increasing distance to key
// (ties to the smaller plain id): the whole-overlay sort the oracle's
// positional answers are checked against.
func byDistance(o *Overlay, key id.ID) []id.ID {
	ids := make([]id.ID, 0, o.Size())
	for _, r := range o.LiveRefs() {
		ids = append(ids, r.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return id.Closer(key, ids[i], ids[j]) })
	return ids
}

func TestOwnerOfMatchesBruteForce(t *testing.T) {
	o := build(t, 200, 11)
	s := rng.New(12)
	for trial := 0; trial < 300; trial++ {
		var key id.ID
		s.Bytes(key[:])
		want := byDistance(o, key)[0]
		if got := o.OwnerOf(key).ID(); got != want {
			t.Fatalf("OwnerOf = %s, brute force %s", got.Short(), want.Short())
		}
	}
}

func TestReplicaSetMatchesBruteForce(t *testing.T) {
	o := build(t, 150, 13)
	s := rng.New(14)
	for trial := 0; trial < 200; trial++ {
		var key id.ID
		s.Bytes(key[:])
		sorted := byDistance(o, key)
		for _, k := range []int{1, 3, 5, 8} {
			got := o.ReplicaSet(key, k)
			want := sorted[:k]
			if len(got) != len(want) {
				t.Fatalf("k=%d: len %d vs %d", k, len(got), len(want))
			}
			for i := range want {
				if got[i].ID() != want[i] {
					t.Fatalf("k=%d pos %d: %s vs %s", k, i, got[i].ID().Short(), want[i].Short())
				}
			}
		}
	}
}

func TestReplicaSetClamps(t *testing.T) {
	o := build(t, 5, 15)
	rs := o.ReplicaSet(id.HashString("k"), 10)
	if len(rs) != 5 {
		t.Fatalf("replica set should clamp to live population, got %d", len(rs))
	}
	if got := o.ReplicaSet(id.HashString("k"), 0); got != nil {
		t.Fatalf("k=0 should be nil")
	}
}

func TestJoinMaintainsInvariantsAndRouting(t *testing.T) {
	o := build(t, 60, 17)
	for i := 0; i < 40; i++ {
		o.Join()
	}
	if o.Size() != 100 {
		t.Fatalf("size %d after joins", o.Size())
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := rng.New(18)
	for trial := 0; trial < 200; trial++ {
		var key id.ID
		s.Bytes(key[:])
		got, _, err := o.Lookup(o.RandomLive(s).ref.Addr, key)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID() != o.OwnerOf(key).ID() {
			t.Fatalf("post-join routing wrong for %s", key.Short())
		}
	}
}

func TestFailMaintainsInvariantsAndRouting(t *testing.T) {
	o := build(t, 200, 19)
	s := rng.New(20)
	// Fail 30% of nodes one by one.
	for i := 0; i < 60; i++ {
		n := o.RandomLive(s)
		if err := o.Fail(n.ref.Addr); err != nil {
			t.Fatal(err)
		}
	}
	if o.Size() != 140 {
		t.Fatalf("size %d after failures", o.Size())
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		var key id.ID
		s.Bytes(key[:])
		got, _, err := o.Lookup(o.RandomLive(s).ref.Addr, key)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID() != o.OwnerOf(key).ID() {
			t.Fatalf("post-failure routing wrong for %s", key.Short())
		}
	}
}

func TestFailErrors(t *testing.T) {
	o := build(t, 3, 21)
	n := o.RandomLive(rng.New(1))
	if err := o.Fail(n.ref.Addr); err != nil {
		t.Fatal(err)
	}
	if err := o.Fail(n.ref.Addr); err == nil {
		t.Fatalf("double-fail accepted")
	}
	if err := o.Fail(simnet.Addr(999)); err == nil {
		t.Fatalf("failing unknown addr accepted")
	}
}

func TestFailLastNodeRefused(t *testing.T) {
	o := build(t, 1, 22)
	n := o.RandomLive(rng.New(1))
	if err := o.Fail(n.ref.Addr); err == nil {
		t.Fatalf("failing the last node should be refused")
	}
}

func TestChurnStress(t *testing.T) {
	// Interleave joins and failures, then verify global correctness.
	o := build(t, 100, 23)
	s := rng.New(24)
	for step := 0; step < 300; step++ {
		if s.Bool(0.5) && o.Size() > 10 {
			if err := o.Fail(o.RandomLive(s).ref.Addr); err != nil {
				t.Fatal(err)
			}
		} else {
			o.Join()
		}
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		var key id.ID
		s.Bytes(key[:])
		got, _, err := o.Lookup(o.RandomLive(s).ref.Addr, key)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID() != o.OwnerOf(key).ID() {
			t.Fatalf("post-churn routing wrong")
		}
	}
}

func TestMembershipCallbacks(t *testing.T) {
	o := build(t, 20, 25)
	var joined, left int
	o.OnJoin = func(*Node) { joined++ }
	o.OnLeave = func(NodeRef) { left++ }
	n := o.Join()
	if joined != 1 {
		t.Fatalf("OnJoin not fired")
	}
	if err := o.Fail(n.ref.Addr); err != nil {
		t.Fatal(err)
	}
	if left != 1 {
		t.Fatalf("OnLeave not fired")
	}
}

func TestJoinWithIDDuplicatePanics(t *testing.T) {
	o := build(t, 5, 26)
	nid := o.LiveRefs()[0].ID
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on duplicate id")
		}
	}()
	o.JoinWithID(nid)
}

func TestProximityInfluencesRoutingTable(t *testing.T) {
	// With a proximity metric that prefers low address distance, RT slots
	// should on average have nearer entries than without.
	cfg := DefaultConfig()
	streamA := rng.New(30)
	withProx, err := Build(cfg, 400, streamA)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with proximity set before filling: Build fills tables during
	// construction, so we emulate by rebuilding and repairing all slots.
	prox := func(a, b simnet.Addr) int64 {
		d := int64(a) - int64(b)
		if d < 0 {
			d = -d
		}
		return d
	}
	streamB := rng.New(30)
	o2, err := Build(cfg, 400, streamB)
	if err != nil {
		t.Fatal(err)
	}
	o2.Proximity = prox
	for _, r := range o2.LiveRefs() {
		n := o2.ByID(r.ID)
		n.RT = *NewRoutingTable(r.ID, cfg.B)
		o2.fillRoutingTable(n)
	}
	sum := func(o *Overlay) (total int64, count int64) {
		for _, r := range o.LiveRefs() {
			for _, e := range o.ByID(r.ID).RT.Entries() {
				total += prox(r.Addr, e.Addr)
				count++
			}
		}
		return
	}
	tA, cA := sum(withProx)
	tB, cB := sum(o2)
	if cA == 0 || cB == 0 {
		t.Fatalf("no RT entries to compare")
	}
	if float64(tB)/float64(cB) >= float64(tA)/float64(cA) {
		t.Fatalf("proximity-aware fill did not reduce mean slot distance: %.1f vs %.1f",
			float64(tB)/float64(cB), float64(tA)/float64(cA))
	}
	if err := o2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLazyRepairCountsAndHeals(t *testing.T) {
	o := build(t, 300, 31)
	s := rng.New(32)
	for i := 0; i < 90; i++ {
		if err := o.Fail(o.RandomLive(s).ref.Addr); err != nil {
			t.Fatal(err)
		}
	}
	before := o.RepairCount
	for trial := 0; trial < 200; trial++ {
		var key id.ID
		s.Bytes(key[:])
		if _, _, err := o.Lookup(o.RandomLive(s).ref.Addr, key); err != nil {
			t.Fatal(err)
		}
	}
	if o.RepairCount == before {
		t.Logf("no repairs triggered (possible but unlikely); repair path untested in this run")
	}
}
