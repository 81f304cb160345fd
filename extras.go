package tap

import (
	"fmt"

	"tap/internal/detect"
	"tap/internal/secroute"
	"tap/internal/simnet"
)

// This file exposes the two mechanisms the paper lists as open problems
// and this repository implements (see EXPERIMENTS.md "Beyond the paper"):
// tunnel health detection, and secure routing to hop nodes.

// --- fault injection ----------------------------------------------------------

// InjectDroppers makes ⌊p·N⌋ random live nodes silently drop all tunnel
// traffic they are asked to relay (they cannot tamper: layers are
// authenticated). Returns the number of droppers. Calling it again
// replaces the dropper set.
func (n *Network) InjectDroppers(p float64) int {
	droppers := make(map[simnet.Addr]struct{})
	refs := n.w.OV.LiveRefs()
	stream := n.w.Root.Split("droppers")
	for _, idx := range stream.PermFirstK(len(refs), int(p*float64(len(refs)))) {
		droppers[refs[idx].Addr] = struct{}{}
	}
	if len(droppers) == 0 {
		n.w.Svc.HopFilter = nil
	} else {
		n.w.Svc.HopFilter = func(addr simnet.Addr, _ ID) bool {
			_, drop := droppers[addr]
			return !drop
		}
	}
	return len(droppers)
}

// --- tunnel health detection --------------------------------------------------

// TunnelMonitor manages a tunnel's lifecycle: end-to-end probing before
// use, immediate replacement of broken tunnels, and scheduled refresh
// against quiet anchor accumulation.
type TunnelMonitor = detect.Monitor

// ProbeTunnel sends a self-addressed nonce through the tunnel and
// verifies the echo: the active check for drops and lost anchors. A
// passing probe does NOT prove the tunnel is uncompromised — a passive
// full-collusion adversary relays faithfully — which is why monitors also
// refresh on a schedule.
func (c *Client) ProbeTunnel(t *Tunnel) error {
	return c.prober().Probe(c.in, t)
}

// prober lazily builds the client's prober.
func (c *Client) prober() *detect.Prober {
	if c.prb == nil {
		c.prb = detect.NewProber(c.net.w.Svc, c.stream.Split("prober"))
	}
	return c.prb
}

// NewTunnelMonitor creates a monitor managing tunnels of length l
// (0 selects the network default) for this client. Call Tick once per
// application time unit.
func (c *Client) NewTunnelMonitor(l int) (*TunnelMonitor, error) {
	return detect.NewMonitor(c.in, c.prober(), c.net.length(l))
}

// --- secure routing -------------------------------------------------------------

// CorruptRouters makes ⌊p·N⌋ random nodes misbehave during *routing*:
// they hijack lookups passing through them by claiming to own the key.
// This is the adversary SecureLookup defends against, orthogonal to the
// anchor-pooling collusion of Adversary.
func (n *Network) CorruptRouters(p float64) int {
	if n.routeAdv == nil {
		n.routeAdv = secroute.NewAdversary()
	}
	return n.routeAdv.MarkFraction(n.w.OV, p, n.w.Root.Split("routers"))
}

// LookupResult reports a secure lookup.
type LookupResult struct {
	// Owner is the accepted owner of the key.
	Owner ID
	// Attempts counts the routes spent (1 = primary route accepted).
	Attempts int
	// Hops is the total overlay hops across attempts.
	Hops int
}

// SecureLookup resolves the owner of key from this client's node using
// the density failure test plus redundant diverse routes (and, in
// paranoid mode, cross-verification of every candidate — recommended for
// anchor lookups, where a hijack costs anonymity).
func (c *Client) SecureLookup(key ID, paranoid bool) (*LookupResult, error) {
	r := secroute.NewRouter(c.net.w.OV, c.net.routeAdv)
	r.AlwaysVerify = paranoid
	res, err := r.Lookup(c.in.Node().Ref().Addr, key)
	if err != nil {
		return nil, fmt.Errorf("tap: secure lookup: %w", err)
	}
	return &LookupResult{Owner: res.Owner.ID, Attempts: res.Attempts, Hops: res.Hops}, nil
}
