package core

import (
	"fmt"
	"io"
	"slices"

	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
)

// FixedTunnel is the "current tunneling" baseline the paper compares
// against (Crowds/Tarzan/MorphMix style): an anonymous path through a
// fixed sequence of specific nodes, with a symmetric key established with
// each. Its defining weakness is the one Figure 2 quantifies — "a path
// fails if one of its mixes leaves the system".
type FixedTunnel struct {
	Relays []pastry.NodeRef

	// tunnel carries the baseline's onion: hop i is named by Relays[i].ID,
	// keyed with the key established with that relay, and hinted with its
	// address. Each hop's anchor holds a key-schedule cell, so a round trip
	// derives a relay's key schedule once, at the build.
	tunnel Tunnel

	// The tunnel's link and, for up to eight relays, Relays and the hints
	// are the FixedTunnel's own: a build costs it and a block of hops.
	link   tunnelLink
	relays [8]pastry.NodeRef
}

// Length returns the number of relays.
func (ft *FixedTunnel) Length() int { return len(ft.Relays) }

// FormFixed picks l distinct live relays uniformly at random and
// establishes a layer key with each (the key exchange itself is assumed,
// as those systems assume a PKI).
func FormFixed(ov *pastry.Overlay, l int, stream *rng.Stream) (*FixedTunnel, error) {
	if l <= 0 {
		return nil, fmt.Errorf("core: fixed tunnel length %d must be positive", l)
	}
	if ov.Size() < l {
		return nil, fmt.Errorf("core: overlay of %d nodes cannot host %d distinct relays", ov.Size(), l)
	}
	ft := new(FixedTunnel)
	ft.Relays = slices.Grow(ft.relays[:0], l)
	ft.link.hints = slices.Grow(ft.link.inline[:0], l)
	ft.tunnel = Tunnel{Hops: make([]tha.Secret, l), link: &ft.link}
	for len(ft.Relays) < l {
		ref := ov.RandomLive(stream).Ref()
		if ft.picked(ref.Addr) {
			continue
		}
		hop := &ft.tunnel.Hops[len(ft.Relays)]
		hop.HopID = ref.ID
		// The key is drawn as crypt.NewKey draws one, into the hop.
		if _, err := io.ReadFull(stream, hop.Key[:]); err != nil {
			return nil, fmt.Errorf("core: drawing relay %d's key: %w", len(ft.Relays), err)
		}
		ft.Relays = append(ft.Relays, ref)
		ft.link.hints = append(ft.link.hints, ref.Addr)
	}
	return ft, nil
}

// picked reports whether addr is among the relays picked so far.
func (ft *FixedTunnel) picked(addr simnet.Addr) bool {
	for _, r := range ft.Relays {
		if r.Addr == addr {
			return true
		}
	}
	return false
}

// Alive reports whether every relay is still a live overlay member — the
// baseline functions exactly when this holds.
func (ft *FixedTunnel) Alive(ov *pastry.Overlay) bool {
	for _, r := range ft.Relays {
		n := ov.Node(r.Addr)
		if n == nil || !n.Alive() || n.ID() != r.ID {
			return false
		}
	}
	return true
}

// BuildFixedForward seals a payload in layers over the fixed relays: the
// Figure 1 message over the relays' tunnel, each layer naming the next
// relay by id and address.
func BuildFixedForward(ft *FixedTunnel, dest id.ID, payload []byte, stream *rng.Stream) (*Envelope, error) {
	return BuildForwardHinted(&ft.tunnel, dest, payload, stream)
}

// DeliverFixed walks the baseline tunnel. It fails with ErrRelayDead the
// moment any relay is gone — there is no recovery, which is the point of
// the comparison. On success it returns the exit payload and destination.
func (svc *Service) DeliverFixed(ft *FixedTunnel, env *Envelope) (id.ID, []byte, error) {
	// A private copy, which every relay peels where it lies; env stays the
	// caller's, intact (DeliverForward's contract).
	own := *env
	own.Sealed = append([]byte(nil), env.Sealed...)
	for i, relay := range ft.Relays {
		n := svc.OV.Node(relay.Addr)
		if n == nil || !n.Alive() || n.ID() != relay.ID {
			return id.ID{}, nil, fmt.Errorf("%w: relay %d (%s)", ErrRelayDead, i, relay)
		}
		layer, err := own.Peel(ft.tunnel.Hops[i].Anchor)
		if err != nil {
			return id.ID{}, nil, fmt.Errorf("core: fixed relay %d: %w", i, err)
		}
		last := i == len(ft.Relays)-1
		switch {
		case layer.IsExit && last:
			return layer.Dest, layer.Payload, nil
		case layer.IsExit:
			return id.ID{}, nil, fmt.Errorf("core: exit layer at non-tail relay %d", i)
		case last || own.HopID != ft.Relays[i+1].ID || own.Hint != ft.Relays[i+1].Addr:
			return id.ID{}, nil, fmt.Errorf("core: fixed tunnel layer order corrupt at relay %d", i)
		}
	}
	return id.ID{}, nil, fmt.Errorf("core: fixed tunnel ended without exit layer")
}
