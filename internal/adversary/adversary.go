// Package adversary models the colluding-malicious-node attacker of the
// paper's §6/§7: an adversary operating a fraction p of the nodes, pooling
// everything those nodes observe.
//
// The attacker's weapon against TAP is anchor leakage: "If one of these k
// nodes is malicious, it can disclose the THA to other colluding nodes. As
// such, malicious nodes can pool their THAs to break the anonymity of
// other users." A leak happens the instant a replica of an anchor lands on
// a malicious node — at deployment or during churn-driven migration — and
// is permanent (the adversary remembers).
//
// A tunnel is *corrupted* (the paper's case 1, the one §7 measures) when
// the adversary has accumulated the anchors of every hop: it can then peel
// every layer of a captured message, so a message entering at its first
// hop exposes the predecessor — the initiator — with certainty. Case 2
// (controlling the first and tail hop nodes and correlating by timing) is
// tracked as a secondary metric; the paper argues its power is limited and
// excludes it from the headline numbers.
package adversary

import (
	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/past"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
)

// Collusion is the global adversary state.
type Collusion struct {
	ov        *pastry.Overlay
	mgr       *past.Manager
	malicious map[simnet.Addr]struct{}
	leaked    map[id.ID]struct{}
}

// NewCollusion creates an adversary watching the given storage layer. It
// chains onto the manager's replication hook, so leakage tracking is exact
// from this moment on: every future replica placement on a malicious node
// leaks that anchor.
func NewCollusion(ov *pastry.Overlay, mgr *past.Manager) *Collusion {
	c := &Collusion{
		ov:        ov,
		mgr:       mgr,
		malicious: make(map[simnet.Addr]struct{}),
		leaked:    make(map[id.ID]struct{}),
	}
	prev := mgr.OnReplicate
	mgr.OnReplicate = func(key id.ID, addr simnet.Addr) {
		if prev != nil {
			prev(key, addr)
		}
		if _, bad := c.malicious[addr]; bad {
			c.leaked[key] = struct{}{}
		}
	}
	return c
}

// MarkFraction corrupts ⌊p·N⌋ uniformly random live nodes (in addition to
// any already malicious) and immediately leaks every anchor they currently
// store. Returns the number of malicious nodes afterwards.
func (c *Collusion) MarkFraction(p float64, stream *rng.Stream) int {
	want := int(p * float64(c.ov.Size()))
	refs := c.ov.LiveRefs()
	for _, idx := range stream.PermFirstK(len(refs), want) {
		c.markAddr(refs[idx].Addr)
	}
	return len(c.malicious)
}

// MarkCount grows the collusion to `target` members by corrupting
// additional uniformly random live benign nodes. It never shrinks the
// collusion, so ascending sweeps over the malicious fraction can reuse one
// world: each step tops up the same monotone adversary. Returns the
// collusion size afterwards.
func (c *Collusion) MarkCount(target int, stream *rng.Stream) int {
	if target <= len(c.malicious) {
		return len(c.malicious)
	}
	refs := c.ov.LiveRefs()
	for _, idx := range stream.PermFirstK(len(refs), len(refs)) {
		if len(c.malicious) >= target {
			break
		}
		c.markAddr(refs[idx].Addr)
	}
	return len(c.malicious)
}

// MarkAddr corrupts one specific node.
func (c *Collusion) MarkAddr(addr simnet.Addr) { c.markAddr(addr) }

func (c *Collusion) markAddr(addr simnet.Addr) {
	if _, dup := c.malicious[addr]; dup {
		return
	}
	c.malicious[addr] = struct{}{}
	// Everything this node already stores is disclosed to the collusion.
	for _, key := range c.mgr.StoreAt(addr).Keys() {
		c.leaked[key] = struct{}{}
	}
}

// IsMalicious reports whether the node at addr is part of the collusion.
func (c *Collusion) IsMalicious(addr simnet.Addr) bool {
	_, bad := c.malicious[addr]
	return bad
}

// MaliciousCount returns the collusion's size.
func (c *Collusion) MaliciousCount() int { return len(c.malicious) }

// Leaked reports whether the adversary holds the anchor for hopID.
func (c *Collusion) Leaked(hopID id.ID) bool {
	_, bad := c.leaked[hopID]
	return bad
}

// LeakedCount returns the number of distinct anchors the adversary has
// accumulated.
func (c *Collusion) LeakedCount() int { return len(c.leaked) }

// TunnelCorrupted is the paper's case 1: the adversary holds the anchors
// of *all* hops of the tunnel, so any message it sees entering the first
// hop traces back to the initiator.
func (c *Collusion) TunnelCorrupted(t *core.Tunnel) bool {
	if t.Length() == 0 {
		return false
	}
	for _, h := range t.Hops {
		if !c.Leaked(h.HopID) {
			return false
		}
	}
	return true
}

// FirstTailCompromised is the paper's case 2: the nodes currently serving
// the first and the tail hop are both malicious, enabling end-to-end
// timing correlation. The paper notes this attack is weak (the adversary
// still cannot confirm the first hop is really first) and excludes it from
// the measured corruption rate; it is reported separately.
func (c *Collusion) FirstTailCompromised(t *core.Tunnel, dir *tha.Directory) bool {
	if t.Length() == 0 {
		return false
	}
	first, ok := dir.HopNode(t.Hops[0].HopID)
	if !ok {
		return false
	}
	tail, ok := dir.HopNode(t.Hops[t.Length()-1].HopID)
	if !ok {
		return false
	}
	return c.IsMalicious(first.Ref().Addr) && c.IsMalicious(tail.Ref().Addr)
}

// CorruptionRate counts the corrupted fraction of a tunnel population.
func (c *Collusion) CorruptionRate(tunnels []*core.Tunnel) float64 {
	if len(tunnels) == 0 {
		return 0
	}
	bad := 0
	for _, t := range tunnels {
		if c.TunnelCorrupted(t) {
			bad++
		}
	}
	return float64(bad) / float64(len(tunnels))
}
