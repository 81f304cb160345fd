package core

import (
	"fmt"

	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/simnet"
)

// WalkStats accumulates the cost and path of one logical tunnel traversal.
type WalkStats struct {
	// OverlayHops counts every overlay routing hop taken, the quantity
	// behind the l·log_{2^b}N overhead of §5. Successful hint shortcuts
	// count as one hop.
	OverlayHops int
	// HintHits and HintMisses track the §5 optimization: a hit is a
	// direct delivery to a cached address that still hosted the hop; a
	// miss is a stale or absent hint that fell back to DHT routing.
	HintHits, HintMisses int
	// HopNodes lists the tunnel hop nodes that actually served each hop.
	HopNodes []pastry.NodeRef
	// CryptoOps counts symmetric operations performed by hop nodes,
	// validating §4's cost claim: "each tunnel hop performs only a single
	// symmetric key operation per message that is processed."
	CryptoOps int
}

// ForwardResult is the outcome of walking a forward tunnel.
type ForwardResult struct {
	Dest     id.ID
	DestNode pastry.NodeRef
	Payload  []byte
	Stats    WalkStats
}

// ReplyResult is the outcome of walking a reply tunnel: where the data
// finally landed. The caller decides whether the landing node is the
// intended initiator (by matching its pending bid); the walker cannot know
// — by design, neither can the network.
type ReplyResult struct {
	Target     id.ID // the last target id (the bid, when the tunnel worked)
	LandedNode pastry.NodeRef
	Remainder  []byte // unread onion remainder (the fake onion on success)
	Data       []byte
	Stats      WalkStats
}

// locate finds the node a message addressed to key is handed to next: the
// §5 address hint when the node there is alive and holds key's anchor,
// else the end of the DHT route from `from`. It counts the overlay hops
// spent and reports whether it routed — a hinted node holds the anchor
// without having to be the id's owner, so only a routed result can be
// checked against the owner oracle.
func (svc *Service) locate(from simnet.Addr, key id.ID, hint simnet.Addr, stats *WalkStats) (node *pastry.Node, routed bool, err error) {
	if hint != simnet.NoAddr {
		if n := svc.OV.Node(hint); n != nil && n.Alive() && svc.holds(hint, key) {
			stats.HintHits++
			stats.OverlayHops++ // one direct network hop
			return n, false, nil
		}
		stats.HintMisses++
	}
	path, err := svc.OV.RoutePath(from, key)
	if err != nil {
		return nil, true, fmt.Errorf("core: routing to %s: %w", key.Short(), err)
	}
	stats.OverlayHops += len(path) - 1
	node = svc.OV.ByID(path[len(path)-1].ID)
	if node == nil {
		return nil, true, fmt.Errorf("core: route for %s ended at dead node", key.Short())
	}
	return node, true, nil
}

// DeliverForward walks a forward envelope from the initiator's address
// through every tunnel hop, performing each hop's real decryption, and
// routes the exit payload to its destination's owner node.
func (svc *Service) DeliverForward(from simnet.Addr, env *Envelope) (*ForwardResult, error) {
	var stats WalkStats
	cur := from
	// The walker owns a private copy, which every hop peels where it lies.
	// env stays the caller's, intact — the initiator's reliability layer
	// re-sends the same envelope on retransmit.
	own := *env
	own.Sealed = append([]byte(nil), env.Sealed...)
	for depth := 0; ; depth++ {
		if depth > 64 {
			return nil, fmt.Errorf("core: forward walk exceeded 64 hops; malformed tunnel")
		}
		hopID := own.HopID
		// The replica oracle, which only a simulator has: a hop with no
		// live replica is lost whatever routing would say (a hint that
		// hits proves a live replica, so asking first changes nothing).
		owner, ok := svc.Dir.HopNode(hopID)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrHopLost, hopID.Short())
		}
		node, routed, err := svc.locate(cur, hopID, own.Hint, &stats)
		if err != nil {
			return nil, err
		}
		if routed && node.ID() != owner.ID() {
			// Routing and the oracle disagree — overlay state is corrupt;
			// surface loudly rather than mis-deliver.
			return nil, fmt.Errorf("core: route for %s ended at %s, owner is %s", hopID.Short(), node.ID().Short(), owner.ID().Short())
		}
		cur = node.Ref().Addr
		stats.HopNodes = append(stats.HopNodes, node.Ref())
		if !svc.hopServes(cur, hopID) {
			return nil, fmt.Errorf("%w: hop %s at node %s", ErrDropped, hopID.Short(), node.Ref())
		}
		anchor, err := svc.anchorAt(cur, hopID)
		if err != nil {
			return nil, fmt.Errorf("%w: hop node %s for %s", ErrNotHolder, node.Ref(), hopID.Short())
		}
		layer, err := own.Peel(anchor)
		if err != nil {
			return nil, err
		}
		stats.CryptoOps++
		if !layer.IsExit {
			continue
		}
		// Tail node routes the plaintext payload to the destination owner.
		path, err := svc.OV.RoutePath(cur, layer.Dest)
		if err != nil {
			return nil, fmt.Errorf("core: tail routing to %s: %w", layer.Dest.Short(), err)
		}
		stats.OverlayHops += len(path) - 1
		return &ForwardResult{
			Dest:     layer.Dest,
			DestNode: path[len(path)-1],
			// Aliases the walker-owned buffer; nothing else references it.
			Payload: layer.Payload,
			Stats:   stats,
		}, nil
	}
}

// DeliverReply walks a reply envelope from the responder's address. At
// each target id, the owning node acts as a hop if it holds the matching
// anchor; the first target whose owner holds no anchor is the delivery
// point — the initiator when everything worked, a bystander otherwise.
func (svc *Service) DeliverReply(from simnet.Addr, env *ReplyEnvelope) (*ReplyResult, error) {
	var stats WalkStats
	cur := from
	// A private copy peeled in place, as in DeliverForward; hops never
	// touch the data.
	own := *env
	own.Onion = append([]byte(nil), env.Onion...)
	for depth := 0; ; depth++ {
		if depth > 64 {
			return nil, fmt.Errorf("core: reply walk exceeded 64 hops; malformed reply tunnel")
		}
		target := own.Target
		node, _, err := svc.locate(cur, target, own.Hint, &stats)
		if err != nil {
			return nil, err
		}
		cur = node.Ref().Addr
		anchor, err := svc.anchorAt(cur, target)
		if err != nil {
			// No anchor here: the message has arrived at its final
			// destination (whoever owns the target id now).
			return &ReplyResult{
				Target:     target,
				LandedNode: node.Ref(),
				Remainder:  own.Onion, // aliases the walker-owned buffer
				Data:       append([]byte(nil), env.Data...),
				Stats:      stats,
			}, nil
		}
		stats.HopNodes = append(stats.HopNodes, node.Ref())
		if !svc.hopServes(cur, target) {
			return nil, fmt.Errorf("%w: reply hop %s at node %s", ErrDropped, target.Short(), node.Ref())
		}
		if err := own.Peel(anchor); err != nil {
			return nil, err
		}
		stats.CryptoOps++
	}
}
