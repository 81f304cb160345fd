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
// the comparison system in Figure 2.
package core

import (
	"errors"
	"fmt"
	"sync"

	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
	"tap/internal/transport"
)

// Tunnel is the owner's view of an anonymous tunnel: the ordered hop
// anchor secrets. Only the owner ever holds this; the network sees hopids
// and ciphertext.
type Tunnel struct {
	Hops []tha.Secret

	// sealers caches one layer-crypto key schedule per hop, index-aligned
	// with Hops. Form fills it; tunnels assembled by hand get theirs
	// lazily on first build. Like the rest of a Tunnel it belongs to one
	// goroutine — the owner.
	sealers []*crypt.Sealer
}

// hopSealer returns the cached Sealer for hop i, deriving it on first use.
func (t *Tunnel) hopSealer(i int) *crypt.Sealer {
	if len(t.sealers) != len(t.Hops) {
		t.sealers = make([]*crypt.Sealer, len(t.Hops))
	}
	if t.sealers[i] == nil {
		t.sealers[i] = crypt.NewSealer(t.Hops[i].Key)
	}
	return t.sealers[i]
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
// pool allows).
func Form(pool []tha.Secret, l int, b int, stream *rng.Stream) (*Tunnel, error) {
	hops, err := tha.ChooseScattered(pool, l, b, stream)
	if err != nil {
		return nil, fmt.Errorf("core: forming tunnel: %w", err)
	}
	// Hop key schedules are derived lazily by hopSealer on the first
	// build: many formed tunnels (availability experiments) never carry a
	// message, and must not pay AES/HMAC setup.
	return &Tunnel{Hops: hops}, nil
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

// Service bundles the substrate a TAP deployment runs on. Net is optional:
// logical walks do not need it. It is typed as the transport seam, so a
// service can ride the simulator or a real transport interchangeably.
type Service struct {
	OV  *pastry.Overlay
	Dir *tha.Directory
	Net transport.Transport

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
// node. Detectors (internal/detect) turn this signal — visible to the
// initiator only as a missing reply — into tunnel health estimates.
var ErrDropped = errors.New("core: message dropped by misbehaving hop node")

// NewService wires a service.
func NewService(ov *pastry.Overlay, dir *tha.Directory, stream *rng.Stream) *Service {
	return &Service{OV: ov, Dir: dir, Stream: stream}
}

// HintCache is the initiator-side cache mapping hopids to the addresses of
// their current hop nodes (§5: "The initiator can maintain a cache of the
// mappings between a tunnel hop hopid and the IP address of its tunnel hop
// node, and it can periodically refresh the cache").
//
// The cache is owned by the initiating application, not the engine: over a
// real transport a background refresher and the engine's event loop touch
// it from different goroutines, so access is guarded by an internal
// RWMutex. (On the simulator everything runs on one loop and the lock is
// uncontended.)
type HintCache struct {
	mu sync.RWMutex
	m  map[id.ID]simnet.Addr
}

// NewHintCache returns an empty cache.
func NewHintCache() *HintCache {
	return &HintCache{m: make(map[id.ID]simnet.Addr)}
}

// Refresh resolves the current hop node of every hop in the tunnel and
// records its address. In deployment this is a periodic background lookup;
// experiments call it explicitly to model fresh or stale caches.
func (c *HintCache) Refresh(svc *Service, t *Tunnel) error {
	for _, h := range t.Hops {
		node, ok := svc.Dir.HopNode(h.HopID)
		if !ok {
			return fmt.Errorf("%w: %s", ErrHopLost, h.HopID.Short())
		}
		addr := node.Ref().Addr
		c.mu.Lock()
		c.m[h.HopID] = addr
		c.mu.Unlock()
	}
	return nil
}

// Invalidate drops the cached address for hopID. Initiators call it when
// a direct send misses (the hinted node is unreachable or no longer holds
// the hop anchor), so subsequent messages fall back to DHT routing until
// the next Refresh re-resolves the hop node.
func (c *HintCache) Invalidate(hopID id.ID) {
	if c != nil && c.m != nil {
		c.mu.Lock()
		delete(c.m, hopID)
		c.mu.Unlock()
	}
}

// Get returns the cached address for hopID, or NoAddr.
func (c *HintCache) Get(hopID id.ID) simnet.Addr {
	if c == nil || c.m == nil {
		return simnet.NoAddr
	}
	c.mu.RLock()
	a, ok := c.m[hopID]
	c.mu.RUnlock()
	if ok {
		return a
	}
	return simnet.NoAddr
}

// hintsFor collects the per-hop hints for a tunnel; a nil cache yields all
// NoAddr (the basic, unoptimized mode).
func hintsFor(c *HintCache, t *Tunnel) []simnet.Addr {
	out := make([]simnet.Addr, len(t.Hops))
	for i, h := range t.Hops {
		out[i] = c.Get(h.HopID)
	}
	return out
}

// BuildForwardWithCache builds the §5 optimized forward message, taking
// every hop's address hint from the cache.
func BuildForwardWithCache(t *Tunnel, cache *HintCache, dest id.ID, payload []byte, stream *rng.Stream) (*Envelope, error) {
	return BuildForward(t, hintsFor(cache, t), dest, payload, stream)
}

// BuildReplyWithCache builds the optimized reply tunnel with cached hints.
func BuildReplyWithCache(t *Tunnel, cache *HintCache, bid id.ID, stream *rng.Stream) (*ReplyTunnel, error) {
	return BuildReply(t, hintsFor(cache, t), bid, stream)
}
