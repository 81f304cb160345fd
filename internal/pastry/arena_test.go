package pastry

import (
	"slices"
	"testing"

	"tap/internal/rng"
)

// sameOverlay fails unless got and want hold the same index and, at every
// address, the same leaf set and the same routing table, row for row.
func sameOverlay(t *testing.T, got, want *Overlay) {
	t.Helper()
	if !slices.Equal(got.LiveRefs(), want.LiveRefs()) {
		t.Fatalf("index differs")
	}
	if got.NumAddrs() != want.NumAddrs() {
		t.Fatalf("%d addresses, want %d", got.NumAddrs(), want.NumAddrs())
	}
	for _, r := range want.LiveRefs() {
		g, w := got.Node(r.Addr), want.Node(r.Addr)
		if g.ref != w.ref {
			t.Fatalf("addr %d: node %v, want %v", r.Addr, g.ref, w.ref)
		}
		if !slices.Equal(g.Leaf.smaller, w.Leaf.smaller) || !slices.Equal(g.Leaf.larger, w.Leaf.larger) {
			t.Fatalf("addr %d: leaf set differs", r.Addr)
		}
		if !slices.Equal(g.RT.refs, w.RT.refs) {
			t.Fatalf("addr %d: routing table differs (%d rows, want %d)", r.Addr, g.RT.Rows(), w.RT.Rows())
		}
	}
}

// refsUsed counts the slab refs an overlay's nodes hold.
func refsUsed(o *Overlay) int {
	n := 0
	for _, r := range o.LiveRefs() {
		nd := o.Node(r.Addr)
		n += cap(nd.Leaf.smaller) + cap(nd.Leaf.larger) + len(nd.RT.refs)
	}
	return n
}

// chunkTotal sums the slab's chunk lengths and checks none is larger than
// a full chunk.
func chunkTotal(t *testing.T, mem *Scratch) int {
	t.Helper()
	n := 0
	for _, c := range mem.slab.chunks {
		if len(c) > refSlabChunk {
			t.Fatalf("chunk of %d refs, more than %d", len(c), refSlabChunk)
		}
		n += len(c)
	}
	return n
}

// TestBuildIntoMatchesBuild rebuilds overlays of changing size inside one
// Scratch: each must equal a fresh Build on the same seed, stale refs from
// the bigger builds before it must not leak into it, and the slab must
// carve no more than it needs.
func TestBuildIntoMatchesBuild(t *testing.T) {
	cfg := DefaultConfig()
	mem := NewScratch()
	for step, tc := range []struct {
		n    int
		seed uint64
	}{{1000, 11}, {300, 12}, {5000, 13}, {1000, 14}} {
		want, err := Build(cfg, tc.n, rng.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildInto(mem, cfg, tc.n, rng.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		sameOverlay(t, got, want)
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step == 0 {
			// A fresh build's chunks are full ones plus one holding
			// exactly the rest; carving block by block without sizing
			// first made two full chunks here (1.94x the refs used).
			used, total := refsUsed(got), chunkTotal(t, mem)
			if float64(total) > 1.02*float64(used) {
				t.Fatalf("1000-node build: %d refs in chunks for %d used (%.2fx)", total, used, float64(total)/float64(used))
			}
		}
	}

	// Monte-Carlo trials: same-size builds on fresh seeds need a few refs
	// more or fewer each time, so a build that outgrows its predecessor
	// adds a small chunk that later, larger blocks must skip.
	mem = NewScratch()
	for seed := uint64(1); seed < 200; seed++ {
		n := 600
		want, err := Build(cfg, n, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildInto(mem, cfg, n, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		sameOverlay(t, got, want)
		chunkTotal(t, mem)
	}

	// A same-size rebuild into a warm Scratch carves from the chunks it
	// already has.
	mem = NewScratch()
	if _, err := BuildInto(mem, cfg, 1000, rng.New(21)); err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(mem.slab.chunks)
	got, err := BuildInto(mem, cfg, 1000, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.slab.chunks) != len(before) {
		t.Fatalf("rebuild made %d chunks, had %d", len(mem.slab.chunks), len(before))
	}
	for i, c := range mem.slab.chunks {
		if &c[0] != &before[i][0] || len(c) != len(before[i]) {
			t.Fatalf("rebuild replaced chunk %d", i)
		}
	}
	want, err := Build(cfg, 1000, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	sameOverlay(t, got, want)
}

// TestSlabCarvesPastSmallChunks: a block that does not fit in the chunk
// after the current one skips it, in the plan and in the carve alike, and
// the plan's last chunk is exactly as long as the carves reach.
func TestSlabCarvesPastSmallChunks(t *testing.T) {
	s := refSlab{chunks: [][]NodeRef{make([]NodeRef, 100), make([]NodeRef, 32)}}
	sizes := []int{90, 48, 8}
	cur, off := 0, 0
	for _, n := range sizes {
		cur, off = s.advance(cur, off, n)
	}
	s.reserve(cur, off)
	if len(s.chunks) != 3 || len(s.chunks[2]) != 56 {
		t.Fatalf("reserve made %d chunks, last of %d refs; want 3, last of 56", len(s.chunks), len(s.chunks[len(s.chunks)-1]))
	}
	for _, n := range sizes {
		if b := s.grab(n); len(b) != n || cap(b) != n {
			t.Fatalf("grab(%d) gave len %d cap %d", n, len(b), cap(b))
		}
	}
	if s.cur != cur || s.off != off || len(s.chunks) != 3 {
		t.Fatalf("carve ended at (%d, %d) with %d chunks; plan said (%d, %d) with 3", s.cur, s.off, len(s.chunks), cur, off)
	}
}
