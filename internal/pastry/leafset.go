package pastry

import (
	"tap/internal/id"
)

// LeafSet tracks the L/2 live nodes with the numerically closest smaller
// nodeIds (the counter-clockwise ring neighbors) and the L/2 closest
// larger ones (clockwise), relative to the owning node.
//
// The leaf set is the component that makes greedy routing terminate
// correctly, so the overlay maintains it eagerly and exactly; see the
// package comment.
//
// Storage is array-backed: both sides are fixed-capacity slices, carved
// out of the overlay's ref slab for arena nodes (so a whole overlay's leaf
// sets amount to a handful of allocations) or heap-allocated for
// standalone use.
type LeafSet struct {
	owner   id.ID
	half    int
	smaller []NodeRef // ccw[0] is the immediate predecessor, ccw order
	larger  []NodeRef // cw[0] is the immediate successor, cw order
}

// NewLeafSet returns an empty leaf set with capacity L/2 per side.
func NewLeafSet(owner id.ID, leafSize int) *LeafSet {
	l := &LeafSet{}
	l.init(owner, leafSize, nil)
	return l
}

// init prepares l in place, drawing side storage from slab when non-nil.
func (l *LeafSet) init(owner id.ID, leafSize int, slab *refSlab) {
	l.owner = owner
	l.half = leafSize / 2
	if slab != nil {
		l.smaller = slab.grabEmpty(l.half)
		l.larger = slab.grabEmpty(l.half)
	} else {
		l.smaller = make([]NodeRef, 0, l.half)
		l.larger = make([]NodeRef, 0, l.half)
	}
}

// ReplaceAll installs the given neighbors wholesale. smaller must be
// ordered walking counter-clockwise from the owner (nearest first), larger
// clockwise (nearest first). The overlay computes these exactly from its
// live index; each side is truncated to L/2.
func (l *LeafSet) ReplaceAll(smaller, larger []NodeRef) {
	l.smaller = l.smaller[:0]
	l.larger = l.larger[:0]
	for i := 0; i < len(smaller) && i < l.half; i++ {
		l.smaller = append(l.smaller, smaller[i])
	}
	for i := 0; i < len(larger) && i < l.half; i++ {
		l.larger = append(l.larger, larger[i])
	}
}

// Members returns all leaf set entries. The slice is freshly allocated.
func (l *LeafSet) Members() []NodeRef {
	out := make([]NodeRef, 0, len(l.smaller)+len(l.larger))
	out = append(out, l.smaller...)
	out = append(out, l.larger...)
	return out
}

// At returns entry i of Members' order — the smaller side nearest first,
// then the larger — without copying the set; 0 <= i < Size().
func (l *LeafSet) At(i int) NodeRef {
	if i < len(l.smaller) {
		return l.smaller[i]
	}
	return l.larger[i-len(l.smaller)]
}

// Size returns the number of entries currently held.
func (l *LeafSet) Size() int { return len(l.smaller) + len(l.larger) }

// Contains reports whether nid is in the leaf set.
func (l *LeafSet) Contains(nid id.ID) bool {
	for _, r := range l.smaller {
		if r.ID == nid {
			return true
		}
	}
	for _, r := range l.larger {
		if r.ID == nid {
			return true
		}
	}
	return false
}

// Covers reports whether key falls within the arc spanned by the leaf set
// (from the farthest smaller neighbor, through the owner, to the farthest
// larger neighbor). Pastry delivers directly out of the leaf set when this
// holds. An incomplete side (fewer than L/2 entries) means the node can see
// the whole ring on that side, so coverage is total.
func (l *LeafSet) Covers(key id.ID) bool {
	if len(l.smaller) < l.half || len(l.larger) < l.half {
		// The overlay has at most L nodes: the leaf set is the whole ring.
		return true
	}
	return id.BetweenIncl(&l.smaller[len(l.smaller)-1].ID, &l.larger[len(l.larger)-1].ID, &key)
}

// nearest carries the best candidate for key seen so far together with
// its ring distance, so a scan computes one distance per candidate and
// none for the incumbent. The order is id.Closer's — distance, then the
// smaller plain id — and this is its only definition over candidates in
// the package: the leaf-set decision, NextHop's rare case and the
// overlay's replica merge all offer to one.
type nearest struct {
	key  id.ID
	ref  *NodeRef
	dist id.Dist
}

// nearestTo starts a scan for key with r as the incumbent.
func nearestTo(key id.ID, r *NodeRef) nearest {
	return nearest{key: key, ref: r, dist: id.RingDist(&r.ID, &key)}
}

// offer makes r the incumbent when it is strictly closer to the key.
func (c *nearest) offer(r *NodeRef) {
	d := id.RingDist(&r.ID, &c.key)
	if d.Less(c.dist) || d == c.dist && r.ID.Less(c.ref.ID) {
		c.ref, c.dist = r, d
	}
}

// ClosestTo returns the leaf-set member (or the owner itself, passed as
// self) numerically closest to key.
func (l *LeafSet) ClosestTo(key id.ID, self NodeRef) NodeRef {
	best := nearestTo(key, &self)
	for i := range l.smaller {
		best.offer(&l.smaller[i])
	}
	for i := range l.larger {
		best.offer(&l.larger[i])
	}
	return *best.ref
}
