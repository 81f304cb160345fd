package core

import (
	"errors"
	"fmt"

	"tap/internal/id"
	"tap/internal/onionroute"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/tha"
	"tap/internal/wire"
)

// Initiator is a node's client-side TAP state: its anchor generator, the
// pool of anchors it has deployed, and the bookkeeping for reply bids.
type Initiator struct {
	svc    *Service
	node   *pastry.Node
	gen    *tha.Generator
	pool   []tha.Secret
	stream *rng.Stream
	// hops is the unused rest of the storage formed tunnels' hops are
	// carved from, cut as long as the pool they are formed from.
	hops []tha.Secret
	// active tracks formed tunnels so DeleteAnchors never destroys an
	// anchor another live tunnel still rides on (tunnels formed from one
	// pool may share anchors).
	active []*Tunnel

	// Quarantine, when non-nil, is consulted by FormTunnel and
	// FormDisjointTunnels: anchors whose circuit breaker is open are
	// excluded from formation, unless exclusion would leave too few
	// anchors to form at all (blocked anchors are then readmitted as a
	// last resort — a short tunnel over a suspect hop beats no tunnel).
	// TunnelPool installs one; standalone initiators leave it nil.
	Quarantine *Quarantine
}

// NewInitiator creates the TAP client for a node. stream feeds anchor and
// nonce generation and must be private to this initiator.
func NewInitiator(svc *Service, node *pastry.Node, stream *rng.Stream) (*Initiator, error) {
	nid := node.ID()
	gen, err := tha.NewGenerator(nid[:], stream)
	if err != nil {
		return nil, err
	}
	return &Initiator{svc: svc, node: node, gen: gen, stream: stream}, nil
}

// Node returns the initiator's own overlay node.
func (in *Initiator) Node() *pastry.Node { return in.node }

// Service returns the TAP service this initiator runs on.
func (in *Initiator) Service() *Service { return in.svc }

// Pool returns the live anchor pool (anchors whose replicas all failed are
// pruned on access — the owner notices a dead anchor when forming or using
// a tunnel).
func (in *Initiator) Pool() []tha.Secret {
	live := in.pool[:0]
	for _, s := range in.pool {
		if in.svc.Dir.Available(s.HopID) {
			live = append(live, s)
		}
	}
	in.pool = live
	return in.pool
}

// PoolSize returns the number of live anchors available.
func (in *Initiator) PoolSize() int { return len(in.Pool()) }

// generate mints n fresh secrets, paying CPU puzzles if the directory
// demands them, and returns matching deployment instructions.
func (in *Initiator) generate(n int) ([]tha.Secret, []onionroute.Instruction, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("core: cannot deploy %d anchors", n)
	}
	secrets := make([]tha.Secret, n)
	instrs := make([]onionroute.Instruction, n)
	for i := 0; i < n; i++ {
		sec, err := in.gen.Generate(in.stream)
		if err != nil {
			return nil, nil, err
		}
		secrets[i] = sec
		instrs[i] = onionroute.Instruction{Anchor: sec.Anchor}
		if in.svc.Dir.PuzzleDifficulty > 0 {
			instrs[i].Nonce = in.svc.Dir.Puzzle(sec.HopID).Mint()
		}
	}
	return secrets, instrs, nil
}

// Bootstrap deploys the initiator's first n anchors through a classic
// Onion Routing path (§3.3), retrying over fresh paths when relays die
// mid-deployment. Until this succeeds the initiator cannot form any TAP
// tunnel.
func (in *Initiator) Bootstrap(n int, pki *onionroute.PKI, maxRetries int) error {
	secrets, instrs, err := in.generate(n)
	if err != nil {
		return err
	}
	if _, err := onionroute.Deploy(in.svc.OV, in.svc.Dir, pki, instrs, in.stream, maxRetries); err != nil {
		return fmt.Errorf("core: bootstrap: %w", err)
	}
	in.pool = append(in.pool, secrets...)
	return nil
}

// DeployViaTunnel deploys n more anchors through an existing tunnel: each
// deployment instruction travels the tunnel as an ordinary forward message
// whose exit destination is the new anchor's own hopid, so the node that
// will own the anchor receives and stores it without learning the
// depositor. Requires a working tunnel.
func (in *Initiator) DeployViaTunnel(t *Tunnel, n int) error {
	secrets, instrs, err := in.generate(n)
	if err != nil {
		return err
	}
	for i := range secrets {
		// The payload is the bootstrap onion's instruction (onionroute).
		w := wire.NewWriter(tha.WireSize + 2 + 8)
		onionroute.AppendInstruction(w, instrs[i])
		env, err := BuildForward(t, nil, secrets[i].HopID, w.Bytes(), in.stream)
		if err != nil {
			return err
		}
		res, err := in.svc.DeliverForward(in.node.Ref().Addr, env)
		if err != nil {
			return fmt.Errorf("core: deploy via tunnel: %w", err)
		}
		// The destination node executes the deployment.
		r := wire.NewReader(res.Payload)
		ins, err := onionroute.ReadInstruction(r)
		if err == nil {
			err = r.Done()
		}
		if err != nil {
			return fmt.Errorf("core: deploy payload: %w", err)
		}
		if err := in.svc.Dir.Deploy(ins.Anchor, ins.Nonce); err != nil {
			return fmt.Errorf("core: deploy via tunnel: %w", err)
		}
		in.pool = append(in.pool, secrets[i])
	}
	return nil
}

// DeployDirect stores n anchors without the bootstrap ceremony.
// Experiments use it: Figures 2–5 measure tunnel availability and
// anonymity, which are independent of how anchors got deployed, and
// skipping the onion cryptography keeps 10^4-node trials fast.
func (in *Initiator) DeployDirect(n int) error {
	if n < 0 {
		return fmt.Errorf("core: cannot deploy %d anchors", n)
	}
	// Mint every secret first, as generate does, into the pool's spare
	// room, grown at most once; each joins the pool once it is deployed.
	if cap(in.pool)-len(in.pool) < n {
		in.pool = append(make([]tha.Secret, 0, max(2*len(in.pool), len(in.pool)+n)), in.pool...)
	}
	fresh := in.pool[len(in.pool) : len(in.pool)+n]
	for i := range fresh {
		var err error
		if fresh[i], err = in.gen.Generate(in.stream); err != nil {
			return err
		}
	}
	for _, sec := range fresh {
		var nonce uint64
		if in.svc.Dir.PuzzleDifficulty > 0 {
			nonce = in.svc.Dir.Puzzle(sec.HopID).Mint()
		}
		if err := in.svc.Dir.Deploy(sec.Anchor, nonce); err != nil {
			return err
		}
		in.pool = in.pool[:len(in.pool)+1]
	}
	return nil
}

// formPool returns the anchors eligible for tunnel formation: the live
// pool minus quarantined anchors — unless filtering leaves fewer than
// need, in which case the full pool is used as a last resort.
func (in *Initiator) formPool(need int) []tha.Secret {
	pool := in.Pool()
	if in.Quarantine == nil {
		return pool
	}
	filtered := make([]tha.Secret, 0, len(pool))
	for _, s := range pool {
		if !in.Quarantine.Blocked(s.HopID) {
			filtered = append(filtered, s)
		}
	}
	if len(filtered) >= need {
		return filtered
	}
	return pool
}

// FormTunnel assembles a tunnel of length l from the live pool,
// excluding quarantined anchors when a Quarantine is installed.
func (in *Initiator) FormTunnel(l int) (*Tunnel, error) {
	t, err := in.form(in.formPool(l), l)
	if err != nil {
		return nil, err
	}
	in.active = append(in.active, t)
	return t, nil
}

// form is Form with the hops carved from the initiator's storage.
func (in *Initiator) form(pool []tha.Secret, l int) (*Tunnel, error) {
	var dst []tha.Secret
	if l > 0 && l <= len(pool) {
		if len(in.hops) < l {
			in.hops = make([]tha.Secret, len(pool))
		}
		dst, in.hops = in.hops[:0:l], in.hops[l:]
	}
	return Form(dst, pool, l, in.svc.OV.Config().B, in.stream)
}

// FormDisjointTunnels assembles count tunnels of length l whose anchor
// sets are pairwise disjoint. The §4 exchange needs this: the reply
// tunnel must be "a different tunnel" from the forward tunnel, so that an
// adversary cannot correlate a request with its reply through a shared
// hop. The pool must hold at least count·l live anchors.
func (in *Initiator) FormDisjointTunnels(count, l int) ([]*Tunnel, error) {
	pool := in.formPool(count * l)
	if len(pool) < count*l {
		return nil, fmt.Errorf("core: pool of %d anchors cannot form %d disjoint %d-hop tunnels", len(pool), count, l)
	}
	remaining := append([]tha.Secret(nil), pool...)
	out := make([]*Tunnel, 0, count)
	for i := 0; i < count; i++ {
		t, err := in.form(remaining, l)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		in.active = append(in.active, t)
		used := make(map[id.ID]struct{}, l)
		for _, h := range t.Hops {
			used[h.HopID] = struct{}{}
		}
		kept := remaining[:0]
		for _, s := range remaining {
			if _, u := used[s.HopID]; !u {
				kept = append(kept, s)
			}
		}
		remaining = kept
	}
	return out, nil
}

// DeleteAnchors retires the given tunnel: its anchors are deleted with
// their password proofs and dropped from the pool — the owner's half of
// the Fig 5 refresh policy. Anchors that another of this initiator's
// still-active tunnels rides on are spared (they stay deployed and stay
// in the pool) so retiring one tunnel never breaks another.
func (in *Initiator) DeleteAnchors(t *Tunnel) error {
	// Unregister t, then collect anchors still in use elsewhere.
	kept := in.active[:0]
	for _, a := range in.active {
		if a != t {
			kept = append(kept, a)
		}
	}
	in.active = kept
	inUse := make(map[id.ID]struct{})
	for _, a := range in.active {
		for _, h := range a.Hops {
			inUse[h.HopID] = struct{}{}
		}
	}

	var firstErr error
	drop := make(map[id.ID]struct{}, len(t.Hops))
	for _, h := range t.Hops {
		if _, used := inUse[h.HopID]; used {
			continue
		}
		drop[h.HopID] = struct{}{}
		if err := in.svc.Dir.Delete(h.HopID, h.PW); err != nil && !errors.Is(err, tha.ErrNotFound) && firstErr == nil {
			firstErr = err
		}
	}
	keptPool := in.pool[:0]
	for _, s := range in.pool {
		if _, gone := drop[s.HopID]; !gone {
			keptPool = append(keptPool, s)
		}
	}
	in.pool = keptPool
	return firstErr
}

// Release unregisters a tunnel without deleting its anchors: they stay
// deployed and in the pool for reuse by later tunnels. The tunnel pool's
// teardown path uses it — a dead tunnel usually has one bad hop, and the
// other anchors are still good (the bad one is handled by the quarantine,
// or retired individually with DropAnchor).
func (in *Initiator) Release(t *Tunnel) {
	kept := in.active[:0]
	for _, a := range in.active {
		if a != t {
			kept = append(kept, a)
		}
	}
	in.active = kept
}

// DropAnchor retires a single anchor: it is deleted from the directory
// (with its password proof) and dropped from the pool. An anchor a
// still-active tunnel rides on is spared. Returns whether it was dropped.
func (in *Initiator) DropAnchor(hopID id.ID) bool {
	for _, a := range in.active {
		for _, h := range a.Hops {
			if h.HopID == hopID {
				return false
			}
		}
	}
	for i, s := range in.pool {
		if s.HopID == hopID {
			// Best effort: the delete failing (e.g. every replica is down)
			// does not keep the anchor usable, so it leaves the pool anyway.
			_ = in.svc.Dir.Delete(s.HopID, s.PW)
			in.pool = append(in.pool[:i], in.pool[i+1:]...)
			return true
		}
	}
	return false
}

// NewBid picks an identifier the initiator's node currently owns, without
// being the node id itself: the low bits are randomized as widely as
// ownership allows. The §4 condition — "I is the node whose nodeId is
// numerically closest to bid" — guarantees replies route home.
func (in *Initiator) NewBid() id.ID {
	self := in.node.ID()
	for bits := 128; bits >= 8; bits /= 2 {
		bid := self
		// Randomize the trailing `bits` bits.
		start := id.Size - bits/8
		in.stream.Bytes(bid[start:])
		if bid != self && in.svc.OV.OwnerOf(bid).ID() == self {
			return bid
		}
	}
	return self
}
