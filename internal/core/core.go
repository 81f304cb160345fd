// Package core implements TAP itself: anonymous tunnels decoupled from
// fixed nodes (Zhu & Hu, ICPP 2004).
//
// A tunnel is a sequence of tunnel hops, each named by a hopid rather than
// an address. The owner of a tunnel holds the hop anchors' secrets
// (internal/tha); whichever node is currently numerically closest to a
// hopid acts as that hop, so the tunnel survives node failures as long as
// each anchor retains one live replica.
//
// Messages traverse a tunnel with mix-style layered encryption (Figure 1):
// the initiator seals the payload innermost-first with the hop keys
// K_l..K_1; each hop strips one layer with its anchor key, learns only the
// next hopid, and forwards. Replies come back over a *different* tunnel
// (§4) whose onion terminates in a bid — an identifier the initiator's own
// node is numerically closest to — capped with a fake onion so the last
// reply hop cannot tell it is last.
//
// One build step makes every onion: seal (message.go) lays a tunnel's
// layers out in one exactly-sized buffer and seals each where it lies.
// BuildForward, BuildReply and the fixed-relay baseline's BuildFixedForward
// are its callers, differing only in the innermost layer and whether relay
// layers carry a marker byte.
//
// Three relays carry these messages, and take one hop step. The step —
// open the layer with the hop's anchor key where it lies, re-address the
// message to the hopid the layer names, pad it back to the size it arrived
// with — is Envelope.Peel and ReplyEnvelope.Peel (message.go), the only
// writers of a message in flight; what differs is how a relay gets the
// message to the node that holds the anchor:
//
//   - the logical walker (walk.go) executes a tunnel traversal
//     synchronously with full cryptography, for availability and
//     anonymity experiments;
//   - the networked engine (netdeliver.go) drives the same traversal
//     through the discrete-event simulator hop by overlay hop, producing
//     the transfer latencies of Figure 6, including the §5 optimization
//     that embeds each hop node's address as a shortcut hint. Its relay
//     path asks the node it runs at three questions — Service.routeAt,
//     holds, anchorAt — and reads the rest from the packet;
//   - the deployed relay (internal/procnode) hands envelopes decoded off a
//     TCP connection to the same two methods, with its own anchor store.
//
// The package also implements the "current tunneling" baseline
// (baseline.go): fixed-node onion paths that die with any member node,
// the comparison system in Figure 2 — the same onion, built and peeled by
// the same two steps, over hops that are relay nodes rather than anchors.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
)

// Tunnel is the owner's view of an anonymous tunnel: the ordered hop
// anchor secrets. Only the owner ever holds this; the network sees hopids
// and ciphertext.
type Tunnel struct {
	Hops []tha.Secret

	// link holds what the owner has learned about the tunnel — address
	// hints and backoff memory — behind its own lock.
	link *tunnelLink
}

// hopSealer returns hop i's key schedule from its anchor's cell, deriving
// it on first use. Generate mints every secret with a cell; a hop built by
// hand without one gets one here, so no hop derives its schedule twice.
// Like the rest of a Tunnel it belongs to one goroutine — the owner.
func (t *Tunnel) hopSealer(i int) *crypt.Sealer {
	h := &t.Hops[i].Anchor
	if !h.HasSealerCache() {
		*h = h.Rekeyed(tha.Anchor{})
	}
	return h.Sealer()
}

// Length returns the number of hops (the paper's tunnel length l).
func (t *Tunnel) Length() int { return len(t.Hops) }

// HopIDs returns the hop identifiers in order.
func (t *Tunnel) HopIDs() []id.ID {
	out := make([]id.ID, len(t.Hops))
	for i, h := range t.Hops {
		out[i] = h.HopID
	}
	return out
}

// Form assembles a tunnel of length l from the owner's deployed anchor
// pool, applying the §3.5 scatter rule (distinct hopid prefixes where the
// pool allows). The hops are appended to dst; the tunnel and its link are
// one allocation, and so are the hints of up to eight hops.
func Form(dst, pool []tha.Secret, l int, b int, stream *rng.Stream) (*Tunnel, error) {
	hops, err := tha.ChooseScattered(dst, pool, l, b, stream)
	if err != nil {
		return nil, fmt.Errorf("core: forming tunnel: %w", err)
	}
	// Hop key schedules are derived lazily, in the anchors' cells, on the
	// first build: many formed tunnels (availability experiments) never
	// carry a message, and must not pay AES-GCM setup.
	f := new(struct {
		t    Tunnel
		link tunnelLink
	})
	f.t = Tunnel{Hops: hops, link: &f.link}
	return &f.t, nil
}

// Errors shared across delivery engines.
var (
	// ErrHopLost means a hop anchor has no live replica left: the tunnel
	// cannot function and must be re-formed.
	ErrHopLost = errors.New("core: tunnel hop anchor lost (all replicas failed)")
	// ErrRelayDead is the baseline's failure: a fixed relay node is gone.
	ErrRelayDead = errors.New("core: fixed tunnel relay is dead")
	// ErrNotHolder means the node asked to act as a hop does not hold the
	// anchor — stale routing or an attack.
	ErrNotHolder = errors.New("core: node does not hold the hop anchor")
)

// Service bundles the substrate a TAP deployment runs on: the overlay and
// the anchor directory. The networked engine holds its own transport
// (NewNetEngine).
type Service struct {
	OV  *pastry.Overlay
	Dir *tha.Directory

	// Stream supplies nonces and fake-onion padding.
	Stream *rng.Stream

	// HopFilter, when non-nil, lets fault-injection and adversary models
	// decide whether the node at addr faithfully serves tunnel traffic
	// for hopID. Returning false models a malicious or broken hop that
	// silently drops the message (it cannot forge: layers are
	// authenticated). Both delivery engines honor it.
	HopFilter func(addr simnet.Addr, hopID id.ID) bool
}

// hopServes applies the filter (nil means all hops behave).
func (svc *Service) hopServes(addr simnet.Addr, hopID id.ID) bool {
	return svc.HopFilter == nil || svc.HopFilter(addr, hopID)
}

// routeAt, holds and anchorAt are the three questions a relaying node asks
// about itself, and all that NetEngine's relay path and the walker's hint
// check read of the world. The simulated overlay and replica stores answer
// them here; a deployed node would from its own tables (ROADMAP item 1(c)).

// routeAt takes one routing step toward key at self: the next address, or
// here when self is key's destination. alive is false, and no step taken,
// when self is not a live overlay member.
func (svc *Service) routeAt(self simnet.Addr, key id.ID) (next simnet.Addr, here, alive bool) {
	node := svc.OV.Node(self)
	if node == nil || !node.Alive() {
		return simnet.NoAddr, false, false
	}
	ref, here := node.NextHop(key)
	return ref.Addr, here, true
}

// holds reports whether self stores hopID's anchor.
func (svc *Service) holds(self simnet.Addr, hopID id.ID) bool {
	return svc.Dir.Manager().HolderHas(self, hopID)
}

// anchorAt hands self the anchor it holds for hopID.
func (svc *Service) anchorAt(self simnet.Addr, hopID id.ID) (tha.Anchor, error) {
	return svc.Dir.FetchAsHolder(self, hopID)
}

// ErrDropped reports a message silently discarded by a misbehaving hop
// node. The walker returns it; on the network a drop shows only as a
// missing reply, which is what the tunnel pool's echo probes wait for.
var ErrDropped = errors.New("core: message dropped by misbehaving hop node")

// NewService wires a service.
func NewService(ov *pastry.Overlay, dir *tha.Directory, stream *rng.Stream) *Service {
	return &Service{OV: ov, Dir: dir, Stream: stream}
}

// tunnelLink is what a tunnel's initiator has learned about it: the §5
// address hints ("The initiator can maintain a cache of the mappings
// between a tunnel hop hopid and the IP address of its tunnel hop node, and
// it can periodically refresh the cache") and the retransmit backoff the
// tunnel has earned (stream.go). Over a real transport a background
// refresher, application goroutines opening streams and the engine's event
// loop touch it from different goroutines, so it carries the lock. (On the
// simulator everything runs on one loop and the lock is uncontended.)
type tunnelLink struct {
	mu sync.RWMutex
	// hints is index-aligned with the whole tunnel's Hops; nil until the
	// first RefreshHints, which is the basic, unhinted mode. A tunnel of up
	// to eight hops keeps them in inline.
	hints  []simnet.Addr
	inline [8]simnet.Addr
	// rto is the remembered backed-off retransmit timeout; 0 is none.
	rto simnet.Time
}

// linked returns the tunnel's link, creating it on first use — by the owner,
// before it shares the tunnel with another goroutine.
func (t *Tunnel) linked() *tunnelLink {
	if t.link == nil {
		t.link = &tunnelLink{}
	}
	return t.link
}

// loadRTO returns the tunnel's remembered backed-off timeout (zero: none).
// Every stream over a tunnel — a reliable message included — starts from
// it and feeds it, so a send over a tunnel that just proved lossy inherits
// the backoff instead of resetting it.
func (t *Tunnel) loadRTO() simnet.Time {
	l := t.linked()
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.rto
}

// storeRTO records a backed-off timeout observed on the tunnel; zero
// forgets it.
func (t *Tunnel) storeRTO(rto simnet.Time) {
	l := t.linked()
	l.mu.Lock()
	l.rto = rto
	l.mu.Unlock()
}

// RefreshHints resolves the current hop node of every hop in the tunnel and
// records its address. In deployment this is a periodic background lookup;
// experiments call it explicitly to model fresh or stale hints.
func (t *Tunnel) RefreshHints(svc *Service) error {
	l := t.linked()
	for i, h := range t.Hops {
		node, ok := svc.Dir.HopNode(h.HopID)
		if !ok {
			return fmt.Errorf("%w: %s", ErrHopLost, h.HopID.Short())
		}
		l.mu.Lock()
		if l.hints == nil {
			l.hints = slices.Grow(l.inline[:0], len(t.Hops))[:len(t.Hops)]
			for j := range l.hints {
				l.hints[j] = simnet.NoAddr
			}
		}
		l.hints[i] = node.Ref().Addr
		l.mu.Unlock()
	}
	return nil
}

// Hint returns the remembered address of hop i's node, or NoAddr.
func (t *Tunnel) Hint(i int) simnet.Addr {
	l := t.linked()
	l.mu.RLock()
	defer l.mu.RUnlock()
	return hintAt(l.hints, i)
}

// dropHint forgets hop i's address. The engine calls it when the tunnel is
// presumed dead (invalidateTunnelHints), so subsequent messages fall back
// to DHT routing until the next RefreshHints re-resolves the hop node.
func (t *Tunnel) dropHint(i int) {
	l := t.linked()
	l.mu.Lock()
	if l.hints != nil {
		l.hints[i] = simnet.NoAddr
	}
	l.mu.Unlock()
}

// BuildForwardHinted builds the §5 optimized forward message, every hop's
// address hint the tunnel's own. Before the first RefreshHints that is
// BuildForward(t, nil, …), byte for byte.
func BuildForwardHinted(t *Tunnel, dest id.ID, payload []byte, stream *rng.Stream) (*Envelope, error) {
	e := new(Envelope)
	if err := buildForwardHintedInto(e, t, dest, payload, stream); err != nil {
		return nil, err
	}
	return e, nil
}

// buildForwardHintedInto is BuildForwardHinted into an envelope the caller
// keeps, its onion laid out in e.Sealed's storage (BuildForwardInto).
func buildForwardHintedInto(e *Envelope, t *Tunnel, dest id.ID, payload []byte, stream *rng.Stream) error {
	l := t.linked()
	l.mu.RLock()
	defer l.mu.RUnlock()
	return BuildForwardInto(e, t, l.hintsOf(t), dest, payload, stream)
}

// BuildReplyHinted builds the optimized reply tunnel with the tunnel's hints.
func BuildReplyHinted(t *Tunnel, bid id.ID, stream *rng.Stream) (*ReplyTunnel, error) {
	l := t.linked()
	l.mu.RLock()
	defer l.mu.RUnlock()
	return BuildReply(t, l.hintsOf(t), bid, stream)
}

// hintsOf returns, under the read lock, t's share of the hints: all of them,
// or the first hops' when t is a prefix of the tunnel the link belongs to.
func (l *tunnelLink) hintsOf(t *Tunnel) []simnet.Addr {
	if len(l.hints) > len(t.Hops) {
		return l.hints[:len(t.Hops)]
	}
	return l.hints
}
