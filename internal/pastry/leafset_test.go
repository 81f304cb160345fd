package pastry

import (
	"testing"

	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/simnet"
)

func ref(v uint64) NodeRef {
	return NodeRef{ID: id.FromUint64(v), Addr: simnet.Addr(v)}
}

func refs(vs ...uint64) []NodeRef {
	out := make([]NodeRef, len(vs))
	for i, v := range vs {
		out[i] = ref(v)
	}
	return out
}

func TestLeafSetReplaceAllTruncates(t *testing.T) {
	l := NewLeafSet(id.FromUint64(100), 4) // half = 2
	l.ReplaceAll(refs(90, 80, 70), refs(110, 120, 130))
	if l.Size() != 4 {
		t.Fatalf("size = %d, want 4 (truncated to half per side)", l.Size())
	}
	if l.Contains(id.FromUint64(70)) || l.Contains(id.FromUint64(130)) {
		t.Fatalf("entries beyond half retained")
	}
	if !l.Contains(id.FromUint64(90)) || !l.Contains(id.FromUint64(120)) {
		t.Fatalf("near entries missing")
	}
}

func TestLeafSetMembersFreshCopy(t *testing.T) {
	l := NewLeafSet(id.FromUint64(100), 4)
	l.ReplaceAll(refs(90), refs(110))
	m := l.Members()
	for i := range m {
		if l.At(i) != m[i] {
			t.Fatalf("At(%d) = %v, Members()[%d] = %v", i, l.At(i), i, m[i])
		}
	}
	m[0] = ref(1)
	if l.Contains(id.FromUint64(1)) {
		t.Fatalf("Members aliases internal storage")
	}
}

func TestLeafSetCoversFullSides(t *testing.T) {
	l := NewLeafSet(id.FromUint64(100), 4)
	l.ReplaceAll(refs(90, 80), refs(110, 120))
	// Inside the [80, 120] arc.
	if !l.Covers(id.FromUint64(85)) || !l.Covers(id.FromUint64(100)) || !l.Covers(id.FromUint64(119)) {
		t.Fatalf("interior keys not covered")
	}
	if !l.Covers(id.FromUint64(80)) || !l.Covers(id.FromUint64(120)) {
		t.Fatalf("boundary keys not covered")
	}
	if l.Covers(id.FromUint64(79)) || l.Covers(id.FromUint64(121)) {
		t.Fatalf("exterior keys covered")
	}
}

func TestLeafSetCoversIncompleteSideMeansWholeRing(t *testing.T) {
	// Fewer than half entries on a side: the node sees the whole ring.
	l := NewLeafSet(id.FromUint64(100), 8)
	l.ReplaceAll(refs(90), refs(110))
	if !l.Covers(id.FromUint64(500)) || !l.Covers(id.Max) {
		t.Fatalf("small overlay should cover everything")
	}
}

func TestLeafSetCoversWrappedArc(t *testing.T) {
	// Owner near zero: the smaller side wraps past Max.
	owner := id.FromUint64(10)
	l := NewLeafSet(owner, 4)
	wrapLo := id.Max.Sub(id.FromUint64(5)) // Max-5
	l.ReplaceAll([]NodeRef{{ID: id.Max, Addr: 1}, {ID: wrapLo, Addr: 2}}, refs(20, 30))
	if !l.Covers(id.FromUint64(0)) || !l.Covers(id.Max) {
		t.Fatalf("wrapped arc not covered")
	}
	if !l.Covers(id.FromUint64(25)) {
		t.Fatalf("cw side not covered")
	}
	if l.Covers(id.FromUint64(1000)) {
		t.Fatalf("far exterior covered despite full sides")
	}
}

func TestLeafSetClosestTo(t *testing.T) {
	self := ref(100)
	l := NewLeafSet(self.ID, 4)
	l.ReplaceAll(refs(90, 80), refs(110, 120))
	if got := l.ClosestTo(id.FromUint64(108), self); got.ID != id.FromUint64(110) {
		t.Fatalf("closest to 108 = %s", got.ID.Short())
	}
	if got := l.ClosestTo(id.FromUint64(101), self); got.ID != self.ID {
		t.Fatalf("closest to 101 should be self, got %s", got.ID.Short())
	}
	if got := l.ClosestTo(id.FromUint64(84), self); got.ID != id.FromUint64(80) {
		t.Fatalf("closest to 84 = %s", got.ID.Short())
	}
}

// closestPairwise is ClosestTo as it was before the one-pass form: every
// member compared against the running best through id.Closer, which
// derives both distances afresh each time. Slow, and the definition.
func closestPairwise(key id.ID, self NodeRef, members []NodeRef) NodeRef {
	best := self
	for _, r := range members {
		if id.Closer(key, r.ID, best.ID) {
			best = r
		}
	}
	return best
}

func TestLeafSetClosestToMatchesPairwiseScan(t *testing.T) {
	o := build(t, 200, 21)
	s := rng.New(22)
	for _, r := range o.index {
		n := o.nodeAt(r.Addr)
		members := n.Leaf.Members()
		for trial := 0; trial < 64; trial++ {
			var key id.ID
			s.Bytes(key[:])
			if trial%4 == 0 {
				// Uniform keys mostly land far outside the arc, where the
				// answer is an end of it; put a share right among the members.
				key = members[s.Intn(len(members))].ID
				s.Bytes(key[id.Size-6:])
			}
			got, want := n.Leaf.ClosestTo(key, n.Ref()), closestPairwise(key, n.Ref(), members)
			if got != want {
				t.Fatalf("node %s key %s: ClosestTo %s, pairwise scan %s", n.ID().Short(), key, got.ID.Short(), want.ID.Short())
			}
		}
	}
}

func TestLeafSetClosestToHandBuilt(t *testing.T) {
	sub := func(a id.ID, v uint64) id.ID { return a.Sub(id.FromUint64(v)) }
	wrapped := func(v uint64) NodeRef { return NodeRef{ID: sub(id.Zero, v), Addr: simnet.Addr(1000 + v)} }
	cases := []struct {
		name            string
		self            NodeRef
		smaller, larger []NodeRef
		key             id.ID
		want            id.ID
	}{
		{"wrapped round zero, key below zero", ref(10), []NodeRef{ref(2), wrapped(5)}, refs(20, 30), sub(id.Zero, 1), id.FromUint64(2)},
		{"wrapped round zero, key at Max side", ref(10), []NodeRef{ref(2), wrapped(5)}, refs(20, 30), sub(id.Zero, 4), sub(id.Zero, 5)},
		{"wrapped, tie across zero goes to the smaller plain id", ref(10), []NodeRef{ref(3), wrapped(3)}, refs(20, 30), id.Zero, id.FromUint64(3)},
		{"one side short", ref(100), refs(90), refs(110, 120), id.FromUint64(93), id.FromUint64(90)},
		{"smaller side empty", ref(100), nil, refs(110, 120), id.FromUint64(50), id.FromUint64(100)},
		{"larger side empty", ref(100), refs(90, 80), nil, id.FromUint64(500), id.FromUint64(100)},
		{"both sides empty", ref(100), nil, nil, id.Max, id.FromUint64(100)},
		{"equidistant between two members", ref(100), refs(90, 80), refs(110, 120), id.FromUint64(85), id.FromUint64(80)},
		{"equidistant between member and owner", ref(100), refs(90, 80), refs(110, 120), id.FromUint64(105), id.FromUint64(100)},
		{"equidistant, larger side listed second still loses", ref(100), refs(90, 80), refs(110, 120), id.FromUint64(115), id.FromUint64(110)},
		{"key == owner", ref(100), refs(90, 80), refs(110, 120), id.FromUint64(100), id.FromUint64(100)},
		{"key == a member", ref(100), refs(90, 80), refs(110, 120), id.FromUint64(120), id.FromUint64(120)},
	}
	for _, c := range cases {
		l := NewLeafSet(c.self.ID, 4)
		l.ReplaceAll(c.smaller, c.larger)
		got := l.ClosestTo(c.key, c.self)
		if got.ID != c.want {
			t.Errorf("%s: ClosestTo = %s, want %s", c.name, got.ID, c.want)
		}
		if ref := closestPairwise(c.key, c.self, l.Members()); got != ref {
			t.Errorf("%s: ClosestTo = %s, pairwise scan %s", c.name, got.ID, ref.ID)
		}
	}
}

// NextHop's comment says the decision must not allocate — it runs at every
// overlay hop of every message. Covers all three of its exits: leaf-set
// delivery, a routing-table hop, and (keys nobody shares a digit with are
// rare, so by churn) the stale-entry repair and rare-case scan.
func TestClosestToAndNextHopDoNotAllocate(t *testing.T) {
	o := build(t, 300, 23)
	s := rng.New(24)
	for i := 0; i < 30; i++ {
		if err := o.Fail(o.RandomLive(s).Ref().Addr); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make([]*Node, len(o.index))
	for i, r := range o.index {
		nodes[i] = o.nodeAt(r.Addr)
	}
	keys := make([]id.ID, 256)
	for i := range keys {
		s.Bytes(keys[i][:])
	}
	// Warm: lazy routing-table repair fills slots (from the arena's slab)
	// the first time a stale entry is met; steady state is what is pinned.
	for _, n := range nodes {
		for _, k := range keys {
			n.NextHop(k)
		}
	}
	i := 0
	if a := testing.AllocsPerRun(2000, func() {
		n := nodes[i%len(nodes)]
		n.Leaf.ClosestTo(keys[i%len(keys)], n.Ref())
		i++
	}); a != 0 {
		t.Errorf("ClosestTo allocates %.1f per call", a)
	}
	i = 0
	if a := testing.AllocsPerRun(2000, func() {
		nodes[i%len(nodes)].NextHop(keys[(i/len(nodes))%len(keys)])
		i++
	}); a != 0 {
		t.Errorf("NextHop allocates %.1f per call", a)
	}
}

func TestRoutingTableSetGetClear(t *testing.T) {
	owner := id.MustParse("a000000000000000000000000000000000000000")
	rt := NewRoutingTable(owner, 4)
	if _, ok := rt.Get(0, 5); ok {
		t.Fatalf("empty table returned an entry")
	}
	e := NodeRef{ID: id.MustParse("5000000000000000000000000000000000000000"), Addr: 7}
	rt.Set(0, 5, e)
	got, ok := rt.Get(0, 5)
	if !ok || got != e {
		t.Fatalf("Get = %v %v", got, ok)
	}
	if rt.EntryCount() != 1 {
		t.Fatalf("count = %d", rt.EntryCount())
	}
	rt.Clear(0, 5)
	if _, ok := rt.Get(0, 5); ok {
		t.Fatalf("cleared entry still present")
	}
	// Clearing beyond materialized rows is a no-op.
	rt.Clear(30, 2)
}

func TestRoutingTableConsider(t *testing.T) {
	owner := id.MustParse("a000000000000000000000000000000000000000")
	rt := NewRoutingTable(owner, 4)
	// Candidate sharing no prefix: row 0, its first digit.
	c1 := NodeRef{ID: id.MustParse("5100000000000000000000000000000000000000"), Addr: 1}
	rt.Consider(c1)
	if got, ok := rt.Get(0, 5); !ok || got != c1 {
		t.Fatalf("Consider did not install row-0 candidate")
	}
	// A second candidate for the same slot must not evict the first.
	c2 := NodeRef{ID: id.MustParse("5200000000000000000000000000000000000000"), Addr: 2}
	rt.Consider(c2)
	if got, _ := rt.Get(0, 5); got != c1 {
		t.Fatalf("Consider evicted an existing entry")
	}
	// Candidate sharing 1 digit: row 1.
	c3 := NodeRef{ID: id.MustParse("a300000000000000000000000000000000000000"), Addr: 3}
	rt.Consider(c3)
	if got, ok := rt.Get(1, 3); !ok || got != c3 {
		t.Fatalf("row-1 candidate not installed")
	}
	// The owner itself is never installed.
	rt.Consider(NodeRef{ID: owner, Addr: 9})
	if rt.EntryCount() != 2 {
		t.Fatalf("count = %d after self-consider", rt.EntryCount())
	}
}

func TestRoutingTableRemove(t *testing.T) {
	owner := id.MustParse("a000000000000000000000000000000000000000")
	rt := NewRoutingTable(owner, 4)
	c := NodeRef{ID: id.MustParse("5100000000000000000000000000000000000000"), Addr: 1}
	rt.Set(0, 5, c)
	if !rt.Remove(c.ID) {
		t.Fatalf("Remove reported missing")
	}
	if rt.Remove(c.ID) {
		t.Fatalf("double remove reported success")
	}
	// Removing an id whose slot holds a different node must not clear it.
	rt.Set(0, 5, c)
	other := id.MustParse("5200000000000000000000000000000000000000")
	if rt.Remove(other) {
		t.Fatalf("Remove cleared a different node's entry")
	}
	if _, ok := rt.Get(0, 5); !ok {
		t.Fatalf("entry lost")
	}
}

func TestRoutingTableEntries(t *testing.T) {
	owner := id.MustParse("a000000000000000000000000000000000000000")
	rt := NewRoutingTable(owner, 4)
	want := map[id.ID]bool{}
	for _, hex := range []string{
		"1000000000000000000000000000000000000000",
		"b000000000000000000000000000000000000000",
		"a100000000000000000000000000000000000000",
	} {
		r := NodeRef{ID: id.MustParse(hex), Addr: 1}
		rt.Consider(r)
		want[r.ID] = true
	}
	got := rt.Entries()
	if len(got) != len(want) {
		t.Fatalf("entries = %d, want %d", len(got), len(want))
	}
	for _, e := range got {
		if !want[e.ID] {
			t.Fatalf("unexpected entry %s", e.ID.Short())
		}
	}
}
