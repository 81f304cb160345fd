package pastry

import (
	"fmt"
	"slices"

	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/simnet"
)

// Overlay owns every node in the simulated network: construction, joins,
// departures, and the sorted live-node index that serves as both the
// correctness oracle and the information source for state repair.
//
// State is arena-backed for scale (the ROADMAP's 10^5–10^6-node target):
// nodes are values in chunked storage indexed by dense Addr, the live-node
// index is a sorted []NodeRef resolved by binary search (no map), and
// liveness is a bitmap over addresses. Identifier-keyed lookups that the
// map used to serve go through the index; address-keyed lookups — the
// common case, since every NodeRef carries its Addr — are O(1) arena
// loads.
type Overlay struct {
	cfg    Config
	stream *rng.Stream

	mem   *Scratch  // node arena, ref slab, alive bitmap
	index []NodeRef // live nodes, sorted by ID

	// buildDup detects duplicate id draws during Build, while the index
	// is still unsorted; it is discarded once the overlay is up and
	// lookups can use the index.
	buildDup map[id.ID]struct{}

	// Proximity, when set, lets routing-table construction prefer nearby
	// nodes as real Pastry does (it fills slots with the topologically
	// closest matching node). It must be deterministic. Nil means "take
	// the first candidate".
	Proximity func(a, b simnet.Addr) int64

	// OnJoin and OnLeave observe membership changes after the overlay
	// state is consistent. The replication manager (internal/past) uses
	// them to migrate replicas.
	OnJoin  func(*Node)
	OnLeave func(NodeRef)

	// RepairCount counts lazy routing-table repairs, for ablation benches.
	RepairCount uint64
}

// Build constructs an overlay of n nodes with fully materialized, exact
// routing state — the steady state an idle Pastry network converges to.
// Node ids are drawn from stream, so the same (seed, n) yields the same
// network.
func Build(cfg Config, n int, stream *rng.Stream) (*Overlay, error) {
	return BuildInto(nil, cfg, n, stream)
}

// BuildInto is Build reusing mem's arenas. The previous overlay built in
// mem (and every node pointer into it) is destroyed. A nil mem allocates
// fresh arenas, which is exactly Build.
func BuildInto(mem *Scratch, cfg Config, n int, stream *rng.Stream) (*Overlay, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("pastry: network size %d < 1", n)
	}
	if cfg.MaxRouteHops == 0 {
		cfg.MaxRouteHops = 64
	}
	if mem == nil {
		mem = NewScratch()
	} else {
		mem.reset()
	}
	o := &Overlay{
		cfg:      cfg,
		stream:   stream.Split("pastry"),
		mem:      mem,
		index:    mem.index[:0],
		buildDup: make(map[id.ID]struct{}, n),
	}
	// Draw every id first, in address order, so that the sorted index can
	// size every node's storage before the slab carves any of it.
	for i := 0; i < n; i++ {
		nid := o.freshID()
		o.buildDup[nid] = struct{}{}
		o.index = append(o.index, NodeRef{ID: nid, Addr: simnet.Addr(i)})
	}
	o.buildDup = nil
	slices.SortFunc(o.index, func(a, b NodeRef) int { return a.ID.Cmp(b.ID) })
	mem.rows = o.tableRows(mem.rows[:0])

	// Each node carves its two leaf-set sides and then its table, in
	// index order; walk those blocks once to make exactly the chunks
	// they need.
	half, cols := cfg.LeafSize/2, 1<<cfg.B
	cur, off := mem.slab.cur, mem.slab.off
	for _, rows := range mem.rows {
		cur, off = mem.slab.advance(cur, off, half)
		cur, off = mem.slab.advance(cur, off, half)
		cur, off = mem.slab.advance(cur, off, int(rows)*cols)
	}
	mem.slab.reserve(cur, off)

	for i := 0; i < n; i++ {
		mem.arena.next()
	}
	for p, r := range o.index {
		node := o.nodeAt(r.Addr)
		o.initNode(node, r)
		node.RT.Reserve(int(mem.rows[p]))
		o.recomputeLeafAt(node, p)
	}
	o.fillAllTables()
	mem.index = o.index
	return o, nil
}

// newNode appends a node to the arena with the next unused address and
// marks it live.
func (o *Overlay) newNode(nid id.ID) *Node {
	node := o.mem.arena.next()
	o.initNode(node, NodeRef{ID: nid, Addr: simnet.Addr(o.mem.arena.n - 1)})
	return node
}

// initNode sets up the arena slot for ref and marks it live. Leaf and
// routing-table storage come from the slab.
func (o *Overlay) initNode(node *Node, ref NodeRef) {
	node.ref = ref
	node.cfg = o.cfg
	node.ov = o
	node.Leaf.init(ref.ID, o.cfg.LeafSize, &o.mem.slab)
	node.RT.init(ref.ID, o.cfg.B, &o.mem.slab)
	o.setAlive(ref.Addr)
}

// freshID draws a random identifier not already in use.
func (o *Overlay) freshID() id.ID {
	for {
		var nid id.ID
		o.stream.Bytes(nid[:])
		if nid.IsZero() {
			continue
		}
		if o.buildDup != nil {
			if _, dup := o.buildDup[nid]; dup {
				continue
			}
		} else if o.ByID(nid) != nil {
			continue
		}
		return nid
	}
}

// Config returns the overlay parameters.
func (o *Overlay) Config() Config { return o.cfg }

// Size returns the number of live nodes.
func (o *Overlay) Size() int { return len(o.index) }

// NumAddrs returns the total address space ever allocated (live + dead).
func (o *Overlay) NumAddrs() int { return o.mem.arena.n }

// Node returns the node at addr, live or dead. Nil for unallocated
// addresses.
func (o *Overlay) Node(addr simnet.Addr) *Node {
	if int(addr) < 0 || int(addr) >= o.mem.arena.n {
		return nil
	}
	return o.nodeAt(addr)
}

// ByID returns the live node with the given id, or nil.
func (o *Overlay) ByID(nid id.ID) *Node {
	p := o.pos(nid)
	if p < len(o.index) && o.index[p].ID == nid {
		return o.nodeAt(o.index[p].Addr)
	}
	return nil
}

// aliveRef reports whether the referenced node is currently live.
func (o *Overlay) aliveRef(r NodeRef) bool {
	if int(r.Addr) >= o.mem.arena.n {
		return false
	}
	return o.aliveAddr(r.Addr) && o.nodeAt(r.Addr).ref.ID == r.ID
}

// LiveRefs returns references to all live nodes in ring order.
func (o *Overlay) LiveRefs() []NodeRef {
	out := make([]NodeRef, len(o.index))
	copy(out, o.index)
	return out
}

// RandomLive returns a uniformly random live node drawn from stream.
func (o *Overlay) RandomLive(stream *rng.Stream) *Node {
	return o.nodeAt(o.index[stream.Intn(len(o.index))].Addr)
}

// --- oracle ---------------------------------------------------------------

// pos returns the insertion position of nid in the sorted index. This is
// the innermost operation of every ownership query and table build, so it
// is a hand-rolled binary search rather than sort.Search — no closure, no
// indirect calls per probe.
func (o *Overlay) pos(nid id.ID) int {
	lo, hi := 0, len(o.index)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.index[mid].ID.Less(nid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the first position in o.index[from:to] whose id is
// >= lo, in absolute index coordinates.
func (o *Overlay) lowerBound(lo id.ID, from, to int) int {
	for from < to {
		mid := int(uint(from+to) >> 1)
		if o.index[mid].ID.Less(lo) {
			from = mid + 1
		} else {
			to = mid
		}
	}
	return from
}

// upperBound returns the first position in o.index[from:to] whose id
// exceeds hi, in absolute index coordinates.
func (o *Overlay) upperBound(hi id.ID, from, to int) int {
	lo := from
	for lo < to {
		mid := int(uint(lo+to) >> 1)
		if hi.Less(o.index[mid].ID) {
			to = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// OwnerOf returns the live node numerically closest to key: the oracle
// answer routing must agree with, and the node PAST stores a key's primary
// replica on.
func (o *Overlay) OwnerOf(key id.ID) *Node {
	n := len(o.index)
	if n == 0 {
		return nil
	}
	p := o.pos(key) % n
	best := nearestTo(key, &o.index[p])
	best.offer(&o.index[(p-1+n)%n])
	return o.nodeAt(best.ref.Addr)
}

// ReplicaSet returns the k live nodes numerically closest to key, ordered
// by increasing distance — PAST's replica set for the key.
func (o *Overlay) ReplicaSet(key id.ID, k int) []*Node {
	return o.AppendReplicaSet(nil, key, k)
}

// AppendReplicaSet is ReplicaSet appending to dst, so a caller that keeps
// one buffer computes replica sets without allocating.
func (o *Overlay) AppendReplicaSet(dst []*Node, key id.ID, k int) []*Node {
	n := len(o.index)
	if k > n {
		k = n
	}
	if k <= 0 {
		return dst
	}
	// The k closest ids on a sorted ring are a contiguous window around
	// the insertion point; merge outward from both sides.
	p := o.pos(key)
	lo := (p - 1 + n) % n
	hi := p % n
	out := slices.Grow(dst, k)
	for len(out) < len(dst)+k {
		// The clockwise side is the incumbent, so it also wins once the
		// two cursors meet on the last unvisited node.
		next := nearestTo(key, &o.index[hi])
		next.offer(&o.index[lo])
		out = append(out, o.nodeAt(next.ref.Addr))
		if next.ref == &o.index[hi] {
			hi = (hi + 1) % n
		} else {
			lo = (lo - 1 + n) % n
		}
	}
	return out
}

// RingNeighbors returns the live nodes within `each` ring positions on
// either side of nid (plus nid's own node when live): the positional
// neighborhood. Replica migration uses it — a key's replica holders are
// within k *positions* of the key, a bound that holds regardless of how
// unevenly ids clump, unlike distance-based windows.
//
// Deduplication is positional arithmetic, not a map: after the center and
// i-1 full rings, position p+i wraps onto already-visited ground exactly
// when 2i-1 >= n, and p-i when 2i >= n. This is the hot query of replica
// migration (every join and failure), so it must not allocate per entry.
func (o *Overlay) RingNeighbors(nid id.ID, each int) []*Node {
	n := len(o.index)
	if n == 0 || each < 0 {
		return nil
	}
	p := o.pos(nid) % n
	want := 2*each + 1
	if want > n {
		want = n
	}
	out := make([]*Node, 0, want)
	add := func(q int) {
		out = append(out, o.nodeAt(o.index[(q%n+n)%n].Addr))
	}
	add(p)
	for i := 1; i <= each && len(out) < n; i++ {
		if 2*i-1 < n {
			add(p + i)
		}
		if 2*i < n && len(out) < n {
			add(p - i)
		}
	}
	return out
}

// rangeMembers returns the live refs within [lo, hi] (an aligned prefix
// block, so it never wraps).
func (o *Overlay) rangeMembers(lo, hi id.ID) []NodeRef {
	i := o.lowerBound(lo, 0, len(o.index))
	j := o.upperBound(hi, i, len(o.index))
	if i >= j {
		return nil
	}
	return o.index[i:j]
}

// --- leaf sets --------------------------------------------------------------

// recomputeLeaf installs node's exact leaf set from the live index,
// writing the sides in place (the index entries carry the refs; no
// temporaries, no map hops).
func (o *Overlay) recomputeLeaf(node *Node) {
	o.recomputeLeafAt(node, o.pos(node.ref.ID))
}

// recomputeLeafAt is recomputeLeaf for a caller that already knows the
// node's index position — bulk construction walks the index in order, so
// re-deriving each position by binary search would be pure waste.
func (o *Overlay) recomputeLeafAt(node *Node, p int) {
	n := len(o.index)
	half := o.cfg.LeafSize / 2
	others := n - 1
	if others < 0 {
		others = 0
	}
	fwdN := half
	if others < fwdN {
		fwdN = others
	}
	bwdN := others - fwdN
	if bwdN > half {
		bwdN = half
	}
	l := &node.Leaf
	l.larger = l.larger[:0]
	for i := 1; i <= fwdN; i++ {
		l.larger = append(l.larger, o.index[(p+i)%n])
	}
	l.smaller = l.smaller[:0]
	for i := 1; i <= bwdN; i++ {
		l.smaller = append(l.smaller, o.index[(p-i+n)%n])
	}
}

// neighborsAround returns the live nodes within half ring positions on
// each side of position p — exactly the nodes whose leaf sets can
// reference the node at p. Dedup is the same positional arithmetic as
// RingNeighbors (this runs on every membership change).
func (o *Overlay) neighborsAround(p int) []*Node {
	n := len(o.index)
	half := o.cfg.LeafSize / 2
	var out []*Node
	for i := 1; i <= half && i < n; i++ {
		if 2*i-1 < n {
			out = append(out, o.nodeAt(o.index[(p+i)%n].Addr))
		}
		if 2*i < n {
			out = append(out, o.nodeAt(o.index[(p-i+n)%n].Addr))
		}
	}
	return out
}

// --- routing tables ---------------------------------------------------------

// rtSampleLimit bounds how many candidates are examined per slot when
// choosing by proximity; real Pastry also sees only a sample (whoever it
// heard from), so a small deterministic sample is both fast and faithful.
const rtSampleLimit = 8

// fillRoutingTable populates node's table from the live index. Rows are
// filled until the block of ids sharing the row prefix with the node
// contains nobody else (deeper rows have no candidates). A sizing pass
// finds that depth first so the whole table is carved from the slab in
// one block; the nested prefix blocks let both passes narrow their search
// windows row over row.
func (o *Overlay) fillRoutingTable(node *Node) {
	digits := id.NumDigits(o.cfg.B)

	// Pass 1: depth. Row r has candidates iff the block sharing r digits
	// with the node holds someone besides the node itself.
	rows := 0
	from, to := 0, len(o.index)
	for row := 0; row < digits; row++ {
		blockLo := node.ref.ID.PrefixFloor(row * o.cfg.B)
		blockHi := node.ref.ID.PrefixCeil(row * o.cfg.B)
		from = o.lowerBound(blockLo, from, to)
		to = o.upperBound(blockHi, from, to)
		if to-from <= 1 {
			break
		}
		rows = row + 1
	}
	if rows == 0 {
		return
	}
	node.RT.Reserve(rows)

	// Pass 2: fill.
	from, to = 0, len(o.index)
	for row := 0; row < rows; row++ {
		blockLo := node.ref.ID.PrefixFloor(row * o.cfg.B)
		blockHi := node.ref.ID.PrefixCeil(row * o.cfg.B)
		blockStart := o.lowerBound(blockLo, from, to)
		blockEnd := o.upperBound(blockHi, blockStart, to)
		from, to = blockStart, blockEnd
		// The 2^b digit sub-blocks tile [blockLo, blockHi] in order, so
		// each block's end boundary is the next one's start: one search
		// per digit, over an ever-narrowing window, instead of two
		// full-index searches per digit.
		own := node.ref.ID.Digit(row, o.cfg.B)
		start := blockStart
		for d := 0; d < 1<<o.cfg.B; d++ {
			_, hi := node.ref.ID.DigitRange(row, o.cfg.B, d)
			end := o.upperBound(hi, start, blockEnd)
			members := o.index[start:end]
			start = end
			if d == own || len(members) == 0 {
				continue
			}
			node.RT.Set(row, d, o.pickBySlot(node, members))
		}
	}
}

// pickBySlot chooses one candidate for a routing-table slot: the
// proximity-closest of a small deterministic sample when a proximity
// metric is configured, otherwise a deterministic per-node choice.
// The per-node variation matters: if every node picked the same
// representative for a block, all routes into that block would funnel
// through one node — a bottleneck real Pastry does not have (each node
// fills slots with whatever nearby candidate it happened to learn).
func (o *Overlay) pickBySlot(node *Node, members []NodeRef) NodeRef {
	if len(members) == 1 {
		return members[0]
	}
	if o.Proximity == nil {
		// Mix the owner's id with the block's first member to spread
		// choices across nodes while staying deterministic. Xor commutes
		// with taking the low word, so this is Xor(owner, first).Low64()
		// without materializing the 160-bit intermediate — this runs for
		// every slot of every table during bulk construction.
		h := node.ref.ID.Low64() ^ members[0].ID.Low64()
		return members[h%uint64(len(members))]
	}
	step := len(members) / rtSampleLimit
	if step == 0 {
		step = 1
	}
	best := members[0]
	bestProx := o.Proximity(node.ref.Addr, best.Addr)
	for i := step; i < len(members); i += step {
		c := members[i]
		if p := o.Proximity(node.ref.Addr, c.Addr); p < bestProx {
			best, bestProx = c, p
		}
	}
	return best
}

// tableRows appends, for each position of the sorted index, how many
// rows that node's routing table needs. A table is as deep as the deepest
// multi-member prefix block containing its node, and any such block also
// contains one of the node's immediate ring neighbors — blocks are
// contiguous runs of the sorted index. So depth is 1 + the longer of the
// two adjacent common prefixes, and one linear pass sizes every table
// exactly (a single slab carve per node, no grow-and-copy). A lone node
// has no table.
func (o *Overlay) tableRows(dst []uint8) []uint8 {
	n := len(o.index)
	if n < 2 {
		return append(dst, make([]uint8, n)...)
	}
	digits := id.NumDigits(o.cfg.B)
	dst = slices.Grow(dst, n)
	lcpPrev := 0
	for i := 0; i < n; i++ {
		lcpNext := 0
		if i+1 < n {
			lcpNext = o.index[i].ID.CommonPrefixDigits(o.index[i+1].ID, o.cfg.B)
		}
		rows := lcpPrev + 1
		if lcpNext >= lcpPrev {
			rows = lcpNext + 1
		}
		dst = append(dst, uint8(min(rows, digits)))
		lcpPrev = lcpNext
	}
	return dst
}

// fillAllTables populates every live node's routing table in one
// recursive sweep over the sorted index, into the rows tableRows sized.
// The per-node fill (fillRoutingTable) binary-searches the index for each
// row's prefix block and each digit's sub-block — dozens of wide searches
// per node — but those blocks are shared: every node whose id starts with
// the same digits sees the same sub-block boundaries. Descending the
// implicit digit trie of the sorted index computes each boundary exactly
// once, turning bulk construction from O(N · rows · 2^b · log N) id
// comparisons into O(trie nodes · 2^b) narrow searches. Results are
// identical: each (node, row, digit) slot gets pickBySlot over the same
// member window either way.
func (o *Overlay) fillAllTables() {
	if n := len(o.index); n >= 2 {
		o.fillBlock(0, 0, n, id.NumDigits(o.cfg.B))
	}
}

// subBounds writes the boundaries of the 2^b digit sub-blocks of the
// block o.index[from:to], whose members all share the first `row` digits:
// bounds[d] .. bounds[d+1] is the window with digit d at position row.
// Within the block ids are sorted, so digits at position row are
// non-decreasing and one linear digit scan finds every boundary — cheaper
// than per-digit binary searches, whose prefix-key construction was the
// hottest line of bulk construction.
func (o *Overlay) subBounds(row, from, to int, bounds []int) {
	cols := 1 << o.cfg.B
	d := 0
	bounds[0] = from
	for i := from; i < to; i++ {
		dig := o.index[i].ID.Digit(row, o.cfg.B)
		for d < dig {
			d++
			bounds[d] = i
		}
	}
	for d < cols {
		d++
		bounds[d] = to
	}
}

// fillBlock fills row `row` for every node in the block o.index[from:to]
// (all sharing `row` digits), then recurses into the multi-member
// sub-blocks for the deeper rows. Row storage is written directly: the
// sizing pass reserved every row this descent reaches.
func (o *Overlay) fillBlock(row, from, to, digits int) {
	if row == digits {
		return
	}
	cols := 1 << o.cfg.B
	// Boundaries live on the stack for the default digit widths; wide
	// configs (b=8) spill to the heap, which only tests exercise.
	var boundsArr [17]int
	bounds := boundsArr[:]
	if cols+1 > len(bounds) {
		bounds = make([]int, cols+1)
	}
	bounds = bounds[:cols+1]
	o.subBounds(row, from, to, bounds)
	base := row * cols
	for i := from; i < to; i++ {
		node := o.nodeAt(o.index[i].Addr)
		own := node.ref.ID.Digit(row, o.cfg.B)
		refs := node.RT.refs[base : base+cols]
		for d := 0; d < cols; d++ {
			if d == own || bounds[d] == bounds[d+1] {
				continue
			}
			refs[d] = o.pickBySlot(node, o.index[bounds[d]:bounds[d+1]])
		}
	}
	for d := 0; d < cols; d++ {
		if bounds[d+1]-bounds[d] > 1 {
			o.fillBlock(row+1, bounds[d], bounds[d+1], digits)
		}
	}
}

// repairEntry finds a live replacement for the empty or stale slot
// (row, digit) of node and installs it. It models Pastry's lazy repair
// protocol (asking peers for a matching node). Returns false when the
// identifier block for that slot is genuinely empty.
func (o *Overlay) repairEntry(node *Node, row, digit int) (NodeRef, bool) {
	lo, hi := node.ref.ID.DigitRange(row, o.cfg.B, digit)
	members := o.rangeMembers(lo, hi)
	if len(members) == 0 {
		return NodeRef{}, false
	}
	o.RepairCount++
	ref := o.pickBySlot(node, members)
	node.RT.Set(row, digit, ref)
	return ref, true
}

// --- membership --------------------------------------------------------------

// Join adds a new node with a fresh random id, wiring its state and its
// neighbors' leaf sets, and returns it. The new node gets the next unused
// address.
func (o *Overlay) Join() *Node {
	return o.JoinWithID(o.freshID())
}

// JoinWithID adds a node with a chosen id (tests use this to build
// adversarial placements). Panics if the id is taken.
func (o *Overlay) JoinWithID(nid id.ID) *Node {
	if o.ByID(nid) != nil {
		panic(fmt.Sprintf("pastry: duplicate id %s", nid))
	}
	node := o.newNode(nid)

	p := o.pos(nid)
	o.index = append(o.index, NodeRef{})
	copy(o.index[p+1:], o.index[p:])
	o.index[p] = node.ref

	o.recomputeLeaf(node)
	o.fillRoutingTable(node)
	// Neighbors must learn about the joiner immediately (leaf-set
	// protocol); everyone in the joiner's routing table learns about it
	// opportunistically, as Pastry's join message distribution does.
	for _, nb := range o.neighborsAround(p) {
		if nb == node {
			continue
		}
		o.recomputeLeaf(nb)
		nb.RT.Consider(node.ref)
	}
	for _, e := range node.RT.Entries() {
		o.nodeAt(e.Addr).RT.Consider(node.ref)
	}
	if o.OnJoin != nil {
		o.OnJoin(node)
	}
	return node
}

// Fail removes the node at addr abruptly: no goodbye, neighbors repair
// their leaf sets, and stale routing-table entries elsewhere linger until
// routing trips over them. Both crashes and voluntary leaves use this
// path — the paper treats them identically for tunnel availability.
func (o *Overlay) Fail(addr simnet.Addr) error {
	node := o.Node(addr)
	if node == nil {
		return fmt.Errorf("pastry: no node at addr %d", addr)
	}
	if !node.Alive() {
		return fmt.Errorf("pastry: node at addr %d already dead", addr)
	}
	if len(o.index) == 1 {
		return fmt.Errorf("pastry: refusing to fail the last node")
	}
	p := o.pos(node.ref.ID)
	// Collect the repair set before removal: the ring neighbors within L/2
	// positions of the dead node are exactly the nodes whose leaf sets can
	// reference it.
	affected := o.neighborsAround(p)
	o.index = append(o.index[:p], o.index[p+1:]...)
	o.clearAlive(addr)

	// Leaf-set repair: the surviving ring neighbors recompute, and drop
	// the dead node from their routing tables (they detected the failure
	// directly).
	for _, nb := range affected {
		o.recomputeLeaf(nb)
		nb.RT.Remove(node.ref.ID)
	}
	if o.OnLeave != nil {
		o.OnLeave(node.ref)
	}
	return nil
}

// --- routing ------------------------------------------------------------------

// RoutePath walks the hop-by-hop route for key starting at the live node
// with address from, using only per-node routing state. The returned path
// includes the start node and ends at the destination. It is the
// message-free form of routing used by analyses; networked delivery
// replays the same decisions per hop.
func (o *Overlay) RoutePath(from simnet.Addr, key id.ID) ([]NodeRef, error) {
	cur := o.Node(from)
	if cur == nil || !cur.Alive() {
		return nil, fmt.Errorf("pastry: route from dead or unknown addr %d", from)
	}
	path := []NodeRef{cur.ref}
	for hop := 0; ; hop++ {
		if hop > o.cfg.MaxRouteHops {
			return path, fmt.Errorf("pastry: route for %s exceeded %d hops", key.Short(), o.cfg.MaxRouteHops)
		}
		next, deliver := cur.NextHop(key)
		if deliver {
			return path, nil
		}
		if !o.aliveRef(next) {
			return path, fmt.Errorf("pastry: next hop %s vanished mid-route", next)
		}
		path = append(path, next)
		cur = o.nodeAt(next.Addr)
	}
}

// Lookup routes to the owner of key from a given start and returns the
// owning node plus the hop count (path length minus one).
func (o *Overlay) Lookup(from simnet.Addr, key id.ID) (*Node, int, error) {
	path, err := o.RoutePath(from, key)
	if err != nil {
		return nil, 0, err
	}
	dst := o.nodeAt(path[len(path)-1].Addr)
	return dst, len(path) - 1, nil
}

// CheckInvariants verifies structural invariants of the overlay: the index
// is sorted and unique, every live node's leaf set matches the oracle, and
// routing-table entries satisfy their prefix constraints. Tests and
// cmd/tapinspect call it; it is O(N · L).
func (o *Overlay) CheckInvariants() error {
	for i := 1; i < len(o.index); i++ {
		if !o.index[i-1].ID.Less(o.index[i].ID) {
			return fmt.Errorf("index unsorted at %d", i)
		}
	}
	for _, r := range o.index {
		node := o.Node(r.Addr)
		if node == nil || !node.Alive() || node.ref != r {
			return fmt.Errorf("index references dead or mismatched node %s", r)
		}
		nid := r.ID
		// Leaf set must equal the oracle's view.
		tmp := Node{ref: node.ref, cfg: o.cfg, ov: o, Leaf: *NewLeafSet(nid, o.cfg.LeafSize)}
		o.recomputeLeaf(&tmp)
		gotM, wantM := node.Leaf.Members(), tmp.Leaf.Members()
		if len(gotM) != len(wantM) {
			return fmt.Errorf("node %s leaf size %d, oracle %d", nid.Short(), len(gotM), len(wantM))
		}
		for i := range gotM {
			if gotM[i] != wantM[i] {
				return fmt.Errorf("node %s leaf[%d] = %v, oracle %v", nid.Short(), i, gotM[i], wantM[i])
			}
		}
		// Routing-table prefix constraints.
		for row := 0; row < node.RT.Rows(); row++ {
			for d := 0; d < 1<<o.cfg.B; d++ {
				e, ok := node.RT.Get(row, d)
				if !ok {
					continue
				}
				if e.ID.CommonPrefixDigits(nid, o.cfg.B) < row {
					return fmt.Errorf("node %s RT[%d][%d] prefix violation", nid.Short(), row, d)
				}
				if e.ID.Digit(row, o.cfg.B) != d {
					return fmt.Errorf("node %s RT[%d][%d] digit violation", nid.Short(), row, d)
				}
			}
		}
	}
	return nil
}
