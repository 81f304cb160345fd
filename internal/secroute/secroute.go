// Package secroute implements secure routing to tunnel hop nodes, the
// companion mechanism the paper's §9 points at: "A big concern is how a
// message can be securely routed to a tunnel hop node given a hopid in
// P2P overlays where a fraction of nodes are malicious to pose a threat.
// ... we refer readers to our extended report for the details of secure
// routing."
//
// The techniques follow Castro et al. ("Secure routing for structured
// peer-to-peer overlay networks", OSDI'02), the standard recipe the
// extended report builds on:
//
//   - A routing failure test: the sender estimates the expected id
//     density around any key from the spacing of its own leaf set; a
//     claimed owner whose distance to the key is far above that estimate
//     is almost certainly an impostor (a malicious node answering for id
//     space it does not own).
//   - Redundant routing: when a route fails the test (or is dropped),
//     the sender retries over diverse first hops — each member of its
//     leaf set — so a few malicious routers on one path cannot censor
//     the lookup.
//
// The adversary model here is *routing* misbehaviour (drop or claim),
// orthogonal to the anchor-leakage adversary in internal/adversary: a
// malicious router wants to prevent or hijack the lookup of an honest
// tunnel hop.
package secroute

import (
	"errors"
	"fmt"

	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
)

// Adversary is a set of overlay nodes that misbehave during routing:
// instead of forwarding a message toward the key, a malicious node
// claims to be the destination itself (the strongest routing attack: it
// both censors the lookup and impersonates the owner).
type Adversary struct {
	malicious map[simnet.Addr]struct{}
}

// NewAdversary creates an empty routing adversary.
func NewAdversary() *Adversary {
	return &Adversary{malicious: make(map[simnet.Addr]struct{})}
}

// MarkFraction corrupts ⌊p·N⌋ random live routers.
func (a *Adversary) MarkFraction(ov *pastry.Overlay, p float64, stream *rng.Stream) int {
	refs := ov.LiveRefs()
	want := int(p * float64(len(refs)))
	for _, idx := range stream.PermFirstK(len(refs), want) {
		a.malicious[refs[idx].Addr] = struct{}{}
	}
	return len(a.malicious)
}

// Mark corrupts one router.
func (a *Adversary) Mark(addr simnet.Addr) { a.malicious[addr] = struct{}{} }

// IsMalicious reports membership.
func (a *Adversary) IsMalicious(addr simnet.Addr) bool {
	if a == nil {
		return false
	}
	_, bad := a.malicious[addr]
	return bad
}

// Count returns the adversary size.
func (a *Adversary) Count() int { return len(a.malicious) }

// Result is the outcome of one (possibly redundant) secure lookup.
type Result struct {
	// Owner is the accepted destination.
	Owner pastry.NodeRef
	// Hops is the total overlay hops spent across all attempts.
	Hops int
	// Attempts counts routes tried (1 = the primary route sufficed).
	Attempts int
	// Honest reports whether the accepted owner is the true closest
	// node. The caller cannot observe this in deployment; experiments use
	// it to score the mechanism.
	Honest bool
}

// Errors.
var (
	// ErrCensored means every route attempt was intercepted and no
	// candidate passed the failure test.
	ErrCensored = errors.New("secroute: all routes censored or failed the density test")
)

// Router performs secure lookups over an overlay with a routing
// adversary.
type Router struct {
	OV  *pastry.Overlay
	Adv *Adversary

	// DensityFactor is the acceptance threshold: a claimed owner is
	// rejected when its distance to the key exceeds DensityFactor times
	// the sender's estimated mean id spacing. Castro et al. use a
	// comparable constant; 4 keeps false positives negligible (the true
	// owner's expected distance is half a spacing).
	DensityFactor int

	// MaxRedundant bounds the diverse-route retries after the primary
	// route fails. Zero disables redundancy (the ablation baseline).
	MaxRedundant int

	// AlwaysVerify launches the redundant routes even when the primary
	// candidate passes the density test, accepting the closest passing
	// candidate overall. This defeats near-target hijackers — malicious
	// nodes adjacent to the key, whom the density test cannot flag —
	// at the cost of ~MaxRedundant extra routes per lookup. Anchor
	// lookups, where a hijack breaks anonymity rather than just a fetch,
	// should run in this mode.
	AlwaysVerify bool
}

// NewRouter returns a router with the default thresholds.
func NewRouter(ov *pastry.Overlay, adv *Adversary) *Router {
	return &Router{OV: ov, Adv: adv, DensityFactor: 4, MaxRedundant: 8}
}

// meanSpacing estimates the average distance between consecutive live ids
// from the spacing within a node's own leaf set — information every node
// has locally and malicious nodes cannot influence.
func meanSpacing(n *pastry.Node) id.ID {
	// Average gap over the leaf-set arc: span / gaps. Dividing a 160-bit
	// value by a small integer via schoolbook long division.
	arc, gaps := n.Leaf.Span()
	return divSmall(arc, uint32(gaps))
}

// divSmall divides a 160-bit value by a small positive integer.
func divSmall(v id.ID, d uint32) id.ID {
	if d == 0 {
		panic("secroute: division by zero")
	}
	var out id.ID
	var rem uint64
	for i := 0; i < id.Size; i++ {
		cur := rem<<8 | uint64(v[i])
		out[i] = byte(cur / uint64(d))
		rem = cur % uint64(d)
	}
	return out
}

// mulSmall multiplies a 160-bit value by a small integer, saturating at
// Max.
func mulSmall(v id.ID, m uint32) id.ID {
	var out id.ID
	var carry uint64
	for i := id.Size - 1; i >= 0; i-- {
		cur := uint64(v[i])*uint64(m) + carry
		out[i] = byte(cur)
		carry = cur >> 8
	}
	if carry != 0 {
		return id.Max
	}
	return out
}

// PassesDensityTest applies the routing failure test from the
// perspective of node src: would src accept `claimed` as the owner of
// key?
func (r *Router) PassesDensityTest(src *pastry.Node, key id.ID, claimed pastry.NodeRef) bool {
	spacing := meanSpacing(src)
	threshold := mulSmall(spacing, uint32(r.DensityFactor))
	return claimed.ID.Distance(key).Cmp(threshold) <= 0
}

// routeOnce walks one route from a given start toward key. At the first
// malicious node the walk stops and that node claims ownership. Returns
// the claimed owner and the hops walked.
func (r *Router) routeOnce(start *pastry.Node, key id.ID, maxHops int) (pastry.NodeRef, int, error) {
	cur := start
	for hop := 0; ; hop++ {
		if hop > maxHops {
			return pastry.NodeRef{}, hop, fmt.Errorf("secroute: route exceeded %d hops", maxHops)
		}
		if r.Adv.IsMalicious(cur.Ref().Addr) {
			// The malicious router hijacks the lookup: "key? that's me."
			return cur.Ref(), hop, nil
		}
		next, deliver := cur.NextHop(key)
		if deliver {
			return cur.Ref(), hop, nil
		}
		nxt := r.OV.ByID(next.ID)
		if nxt == nil {
			return pastry.NodeRef{}, hop, fmt.Errorf("secroute: next hop vanished")
		}
		cur = nxt
	}
}

// Lookup securely resolves the owner of key from the node at src. The
// primary route goes out normally; if the returned candidate fails the
// density test, diverse routes are launched through distinct leaf-set
// neighbors until a candidate passes or MaxRedundant routes are spent.
func (r *Router) Lookup(src simnet.Addr, key id.ID) (*Result, error) {
	srcNode := r.OV.Node(src)
	if srcNode == nil || !srcNode.Alive() {
		return nil, fmt.Errorf("secroute: lookup from dead node %d", src)
	}
	maxHops := r.OV.Config().MaxRouteHops
	res := &Result{}

	accept := func(claimed pastry.NodeRef) bool {
		return r.PassesDensityTest(srcNode, key, claimed)
	}
	score := func(claimed pastry.NodeRef) {
		res.Owner = claimed
		truth := r.OV.OwnerOf(key)
		res.Honest = truth != nil && truth.ID() == claimed.ID
	}

	// Primary route.
	best := pastry.NodeRef{}
	haveBest := false
	claimed, hops, err := r.routeOnce(srcNode, key, maxHops)
	res.Hops += hops
	res.Attempts++
	if err == nil && accept(claimed) {
		if !r.AlwaysVerify {
			score(claimed)
			return res, nil
		}
		best, haveBest = claimed, true
	}

	// Redundant diverse routes: one per distinct leaf-set neighbor, walked
	// in place.
	for i := 0; i < r.MaxRedundant && i < srcNode.Leaf.Size(); i++ {
		start := r.OV.ByID(srcNode.Leaf.At(i).ID)
		if start == nil {
			continue
		}
		res.Attempts++
		// One hop to reach the neighbor, then its route.
		claimed, hops, err := r.routeOnce(start, key, maxHops)
		res.Hops += hops + 1
		if err != nil || !accept(claimed) {
			continue
		}
		if !haveBest || id.Closer(key, claimed.ID, best.ID) {
			best = claimed
			haveBest = true
		}
	}
	if haveBest {
		score(best)
		return res, nil
	}
	return res, ErrCensored
}
