package pastry

import (
	"tap/internal/id"
)

// Node is one overlay participant. Routing state is node-local; the
// overlay pointer is used only for liveness checks (standing in for
// failure detection by send timeout) and lazy routing-table repair
// (standing in for Pastry's repair queries to peers).
//
// Nodes are values inside the overlay's chunked arena — LeafSet and
// RoutingTable are embedded, their entry storage carved from the arena's
// ref slab — so building an N-node overlay costs O(N/chunk) allocations
// rather than several per node. Liveness lives in the overlay's alive
// bitmap, keyed by the node's dense address.
type Node struct {
	ref  NodeRef
	cfg  Config
	ov   *Overlay
	Leaf LeafSet
	RT   RoutingTable
}

// Ref returns the node's identity.
func (n *Node) Ref() NodeRef { return n.ref }

// ID returns the node's identifier.
func (n *Node) ID() id.ID { return n.ref.ID }

// Addr returns the node's network address.
func (n *Node) Addr() int { return int(n.ref.Addr) }

// Alive reports whether the node is currently a live overlay member.
func (n *Node) Alive() bool { return n.ov.aliveAddr(n.ref.Addr) }

// NextHop runs Pastry's routing decision for key at this node.
//
// It returns (self, true) when this node is the destination — i.e. it
// believes itself numerically closest to key — and (next, false) when the
// message should be forwarded to next. The decision follows the Pastry
// algorithm: leaf-set delivery when the key is within leaf-set range,
// otherwise the routing-table entry matching one more digit, otherwise the
// rare-case fallback to any known strictly closer node with no shorter a
// prefix match.
func (n *Node) NextHop(key id.ID) (NodeRef, bool) {
	if key == n.ref.ID {
		return n.ref, true
	}

	// Leaf-set case: deliver to the numerically closest member.
	if n.Leaf.Covers(key) {
		best := n.Leaf.ClosestTo(key, n.ref)
		if best.ID == n.ref.ID {
			return n.ref, true
		}
		return best, false
	}

	// Routing-table case.
	row := n.ref.ID.CommonPrefixDigits(key, n.cfg.B)
	digit := key.Digit(row, n.cfg.B)
	if e, ok := n.RT.Get(row, digit); ok {
		if n.ov.aliveRef(e) {
			return e, false
		}
		// The entry is stale: drop it and repair from the overlay, which
		// models Pastry asking a nearby node for a replacement.
		n.RT.Clear(row, digit)
		if r, ok := n.ov.repairEntry(n, row, digit); ok {
			return r, false
		}
	} else if r, ok := n.ov.repairEntry(n, row, digit); ok {
		// An empty slot that the overlay can fill means we simply had not
		// learned about that region yet.
		return r, false
	}

	// Rare case: forward to any known live node that shares at least as
	// long a prefix with the key and is strictly closer to it. Leaf and
	// table entries are scanned in place — this path must not allocate,
	// it is inside every route.
	best := nearestTo(key, &n.ref)
	consider := func(refs []NodeRef) {
		for i := range refs {
			r := &refs[i]
			if r.ID.IsZero() || !n.ov.aliveRef(*r) {
				continue
			}
			if r.ID.CommonPrefixDigits(key, n.cfg.B) < row {
				continue
			}
			best.offer(r)
		}
	}
	consider(n.Leaf.smaller)
	consider(n.Leaf.larger)
	consider(n.RT.refs)
	if best.ref.ID == n.ref.ID {
		// Nobody closer is known: this node is the destination as far as
		// the overlay can tell.
		return n.ref, true
	}
	return *best.ref, false
}
