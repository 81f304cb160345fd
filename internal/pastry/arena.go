package pastry

import (
	"tap/internal/simnet"
)

// Node storage is arena-backed: nodes live as values inside fixed-size
// chunks, addressed by their dense simnet.Addr. Chunks are never moved or
// reallocated, so *Node pointers handed out by the overlay stay valid
// across joins — the failure mode a flat append-grown []Node would have.
const (
	nodeChunkShift = 10 // 1024 nodes per chunk
	nodeChunkSize  = 1 << nodeChunkShift
	nodeChunkMask  = nodeChunkSize - 1
)

// refSlabChunk is the number of NodeRefs in a full slab chunk: 2 MiB, a
// NodeRef being 32 bytes. Leaf sets and routing-table rows for a whole
// chunk's worth of nodes come out of a handful of these instead of
// several slices per node. A build's last chunk holds exactly the rest.
const refSlabChunk = 1 << 16

// nodeArena is the chunked node store.
type nodeArena struct {
	chunks [][]Node
	n      int // nodes handed out; the next node gets Addr n
	dirty  int // high-water mark: slots below this held nodes before a reset
}

// next returns a pointer to the next node slot, zeroed. The slot's address
// is stable for the arena's lifetime.
func (a *nodeArena) next() *Node {
	ci := a.n >> nodeChunkShift
	if ci == len(a.chunks) {
		if cap(a.chunks) > ci && a.chunks[:ci+1][ci] != nil {
			// A reset preserved this chunk; bring it back into view.
			a.chunks = a.chunks[:ci+1]
		} else {
			a.chunks = append(a.chunks, make([]Node, nodeChunkSize))
		}
	}
	nd := &a.chunks[ci][a.n&nodeChunkMask]
	if a.n < a.dirty {
		*nd = Node{}
	}
	a.n++
	return nd
}

// at returns the node at addr, which must be < a.n.
func (a *nodeArena) at(addr simnet.Addr) *Node {
	return &a.chunks[addr>>nodeChunkShift][addr&nodeChunkMask]
}

// reset rewinds the arena, keeping every chunk for reuse.
func (a *nodeArena) reset() {
	if a.n > a.dirty {
		a.dirty = a.n
	}
	a.chunks = a.chunks[:0]
	a.n = 0
}

// refSlab carves NodeRef blocks out of large chunks. Blocks are stable
// (chunks never move) and the whole slab rewinds in O(1) on reset, which
// is what makes per-trial overlay reuse allocation-free.
type refSlab struct {
	chunks [][]NodeRef
	cur    int // chunk being carved
	off    int // carve offset within chunks[cur]
	// High-water mark of memory carved in any previous generation.
	// Everything before it may hold stale refs and must be cleared on
	// re-carve; everything at or past it is still make()-zeroed, and
	// skipping the redundant clear there keeps first-build cost down
	// (the clears otherwise show up as ~15% of bulk construction).
	dirtyCur, dirtyOff int
}

// advance returns the position after carving an n-ref block at (cur,
// off): a block that does not fit in the rest of chunk cur starts the
// next chunk it fits in, and a chunk not made yet counts as a full one.
// Oversize blocks (enormous LeafSize configs) get dedicated allocations
// and are not recycled; they cannot occur at the parameters any
// experiment runs.
func (s *refSlab) advance(cur, off, n int) (int, int) {
	if n > refSlabChunk {
		return cur, off
	}
	for {
		size := refSlabChunk
		if cur < len(s.chunks) {
			size = len(s.chunks[cur])
		}
		if off+n <= size {
			return cur, off + n
		}
		cur, off = cur+1, 0
	}
}

// reserve makes the chunks that carving up to position (cur, off) runs
// into, found by advancing through every block a build will carve: full
// chunks, then one of exactly off refs. The carves then allocate nothing,
// and the build leaves no zeroed tail it never uses.
func (s *refSlab) reserve(cur, off int) {
	for len(s.chunks) < cur {
		s.chunks = append(s.chunks, make([]NodeRef, refSlabChunk))
	}
	if len(s.chunks) == cur && off > 0 {
		s.chunks = append(s.chunks, make([]NodeRef, off))
	}
}

// grab returns a zeroed block of n NodeRefs with capacity exactly n.
func (s *refSlab) grab(n int) []NodeRef {
	if n > refSlabChunk {
		return make([]NodeRef, n)
	}
	s.cur, s.off = s.advance(s.cur, s.off, n)
	if s.cur == len(s.chunks) {
		s.chunks = append(s.chunks, make([]NodeRef, refSlabChunk))
	}
	c := s.chunks[s.cur][s.off-n : s.off : s.off]
	if s.cur < s.dirtyCur || (s.cur == s.dirtyCur && s.off-n < s.dirtyOff) {
		clear(c)
	}
	return c
}

// grabEmpty returns a zero-length block with capacity c.
func (s *refSlab) grabEmpty(c int) []NodeRef {
	return s.grab(c)[:0]
}

// reset rewinds the slab, keeping every chunk.
func (s *refSlab) reset() {
	if s.cur > s.dirtyCur || (s.cur == s.dirtyCur && s.off > s.dirtyOff) {
		s.dirtyCur, s.dirtyOff = s.cur, s.off
	}
	s.cur, s.off = 0, 0
}

// Scratch is a reusable memory arena for overlay construction. A zero
// Scratch is ready to use; passing the same Scratch to successive
// BuildInto calls rebuilds each overlay inside the previous one's memory,
// which removes the allocation cost that dominates Monte-Carlo trials
// (one overlay build per trial). A Scratch must not back two live
// overlays at once, and everything reachable from the previous overlay
// (nodes, refs, leaf sets) dies when it is reused.
type Scratch struct {
	arena nodeArena
	slab  refSlab
	index []NodeRef
	alive []uint64
	rows  []uint8 // routing-table depth per index position, during a build
}

// NewScratch returns an empty scratch arena.
func NewScratch() *Scratch { return &Scratch{} }

// reset rewinds all arenas, keeping their memory.
func (s *Scratch) reset() {
	s.arena.reset()
	s.slab.reset()
	s.index = s.index[:0]
	clear(s.alive)
	s.alive = s.alive[:0]
}

// --- alive bitmap -----------------------------------------------------------

// setAlive marks addr live. The bitmap grows with the address space.
func (o *Overlay) setAlive(addr simnet.Addr) {
	w := int(addr >> 6)
	for w >= len(o.mem.alive) {
		o.mem.alive = append(o.mem.alive, 0)
	}
	o.mem.alive[w] |= 1 << (addr & 63)
}

// clearAlive marks addr dead.
func (o *Overlay) clearAlive(addr simnet.Addr) {
	o.mem.alive[addr>>6] &^= 1 << (addr & 63)
}

// aliveAddr reports whether the node at addr is live. addr must be an
// allocated address.
func (o *Overlay) aliveAddr(addr simnet.Addr) bool {
	return o.mem.alive[addr>>6]&(1<<(addr&63)) != 0
}

// nodeAt returns the node at an allocated address without bounds checks
// beyond the arena's own; callers pass addresses taken from live NodeRefs.
func (o *Overlay) nodeAt(addr simnet.Addr) *Node {
	return o.mem.arena.at(addr)
}
