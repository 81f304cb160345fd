// Package tha implements Tunnel Hop Anchors, the mechanism that decouples
// TAP tunnels from fixed nodes (§3 of the paper).
//
// A tunnel hop is identified by a hopid — a DHT key — and anchored by a
// record <hopid, K, H(PW)> replicated on the k nodes numerically closest
// to hopid. The node currently closest is the *tunnel hop node*; the other
// replica holders are candidates that take over on failure. K is the
// symmetric layer key for that hop; H(PW) lets the owner, and only the
// owner, delete the anchor later by revealing PW.
//
// Anchor generation (§3.2) must be collision-free across nodes yet
// unlinkable to the generating node: hopid = H(node_ID, hkey, t) with a
// per-node secret hkey and a deployment counter t, so nobody can
// recompute the mapping without the secret.
package tha

import (
	"errors"
	"fmt"
	"io"

	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/past"
	"tap/internal/pastry"
	"tap/internal/simnet"
	"tap/internal/wire"
)

// Anchor is the stored THA record <hopid, K, H(PW)>.
type Anchor struct {
	HopID  id.ID
	Key    crypt.Key
	PWHash crypt.PasswordHash

	// sealer, when non-nil, caches the layer-crypto key schedule for Key:
	// every copy of the record made from this one — anchors are passed by
	// value — shares the cell, so the key is derived once per cell, not
	// once per message. Generate mints every secret with a cell, and
	// Directory.Deploy keeps the cell it is given, so in the simulator an
	// anchor's owner and its k holders share one schedule. An anchor
	// decoded off a socket has none until its holder gives it one
	// (Rekeyed), so a deployed relay never shares the owner's. The
	// schedule itself is derived lazily on first use: most deployed anchors
	// never seal a message (availability and corruption experiments deploy
	// hundreds of thousands), so a cell must not pay AES-GCM setup. It is
	// node-local state, never serialized: WireSize excludes it. Like the
	// rest of the relay state it assumes single-goroutine use.
	sealer *sealerCell
}

// sealerCell is the shared, lazily-filled key-schedule slot. It holds the
// schedule by value, so deriving it costs only the AES cipher and the GCM.
type sealerCell struct {
	s     crypt.Sealer
	ready bool
}

// HasSealerCache reports whether the record carries a key-schedule cell.
func (a Anchor) HasSealerCache() bool { return a.sealer != nil }

// Rekeyed returns a copy of the record whose key schedule lives in spare's
// cell, derived there now for this record's key; a spare without a cell —
// the zero Anchor — gets a new one. A holder that expects an anchor to
// process many messages stores such a copy; one that does not keeps the
// bare record and its ~1.3 KiB of AES-GCM state unallocated. The cell is
// rewritten in place, so whatever else refers to it peels under this key
// from now on: the caller must be the cell's only holder, as a deployed
// relay is of its one spare.
func (a Anchor) Rekeyed(spare Anchor) Anchor {
	if a.sealer = spare.sealer; a.sealer == nil {
		a.sealer = new(sealerCell)
	}
	a.sealer.s, a.sealer.ready = crypt.MakeSealer(a.Key), true
	return a
}

// Sealer returns the anchor's key schedule. On a record with a cell it is
// derived on first use and cached; on a bare record — everything a node
// decodes off the wire — every call derives a fresh throwaway schedule
// (the layer key, AES expansion, GHASH tables), which is the right price
// for one message and the wrong one for a stream.
func (a Anchor) Sealer() *crypt.Sealer {
	if a.sealer != nil {
		if !a.sealer.ready {
			a.sealer.s = crypt.MakeSealer(a.Key)
			a.sealer.ready = true
		}
		return &a.sealer.s
	}
	return crypt.NewSealer(a.Key)
}

// WireSize is the encoded anchor size used for network-cost accounting
// (hopid + key + password hash).
const WireSize = id.Size + crypt.KeySize + 32

// AppendAnchor writes the record's one wire form: hopid ‖ key blob ‖ hash
// blob. The sealer cell is node-local and never written.
func AppendAnchor(w *wire.Writer, a Anchor) {
	w.ID(a.HopID)
	w.Blob(a.Key[:])
	w.Blob(a.PWHash[:])
}

// ReadAnchor reads what AppendAnchor writes. A key or hash blob that is not
// exactly its field fails r with wire.ErrBlobLen.
func ReadAnchor(r *wire.Reader) (a Anchor) {
	a.HopID = r.ID()
	r.FixedBlob(a.Key[:])
	r.FixedBlob(a.PWHash[:])
	return a
}

// Secret is the owner's view of an anchor: the record plus the deletion
// password. Secrets never leave the initiator.
type Secret struct {
	Anchor
	PW crypt.Password
}

// Generator produces node-specific, unlinkable anchors.
type Generator struct {
	// nodeID is the node's identity, kept in idBuf when it fits one id.
	nodeID []byte
	idBuf  [id.Size]byte
	hkey   [16]byte
	next   uint64

	// draw is what Generate draws the key and password through: a draw
	// into a local would escape through the io.Reader, one allocation
	// each. It is cleared after every draw.
	draw [max(crypt.KeySize, crypt.PasswordSize)]byte

	// cells is the unused rest of the chunk Generate carves each secret's
	// key-schedule cell from.
	cells []sealerCell
}

// chunk is how many key-schedule cells a generator, or stored records a
// directory, allocates at once.
const chunk = 64

// NewGenerator creates a generator for the node identified by nodeID
// (e.g. the encoding of its public key), with a fresh secret hkey drawn
// from r.
func NewGenerator(nodeID []byte, r io.Reader) (*Generator, error) {
	g := new(Generator)
	g.nodeID = append(g.idBuf[:0], nodeID...)
	if _, err := io.ReadFull(r, g.hkey[:]); err != nil {
		return nil, fmt.Errorf("tha: drawing hkey: %w", err)
	}
	return g, nil
}

// Generate mints the next anchor: hopid = H(node_ID ‖ hkey ‖ t), a fresh
// random key, and a fresh password. The counter t advances every call, so
// repeated generation never collides with the node's own earlier anchors;
// the hash makes cross-node collisions negligible and the hkey makes the
// hopid unlinkable to the node. The secret carries an empty key-schedule
// cell, cut from the generator's chunk.
func (g *Generator) Generate(r io.Reader) (Secret, error) {
	t := g.next
	g.next++
	var tbuf [8]byte
	for i := 0; i < 8; i++ {
		tbuf[i] = byte(t >> (8 * (7 - i)))
	}
	hopID := id.Hash(g.nodeID, g.hkey[:], tbuf[:])
	var sec Secret
	if err := g.drawInto(sec.Key[:], r, "key"); err != nil {
		return Secret{}, err
	}
	if err := g.drawInto(sec.PW[:], r, "password"); err != nil {
		return Secret{}, err
	}
	sec.HopID, sec.PWHash = hopID, sec.PW.Hash()
	if len(g.cells) == 0 {
		g.cells = make([]sealerCell, chunk)
	}
	sec.sealer = &g.cells[0]
	g.cells = g.cells[1:]
	return sec, nil
}

// drawInto fills dst from r through the generator's draw scratch, which it
// clears before returning.
func (g *Generator) drawInto(dst []byte, r io.Reader, what string) error {
	buf := g.draw[:len(dst)]
	defer clear(buf)
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("tha: drawing %s: %w", what, err)
	}
	copy(dst, buf)
	return nil
}

// Counter returns the next t value (how many anchors were generated).
func (g *Generator) Counter() uint64 { return g.next }

// --- directory ---------------------------------------------------------------

// Directory is the storage-side view of all deployed anchors: a typed
// layer over the PAST replication manager that enforces the paper's access
// rules. Only the replica-set nodes of a hopid (verifiable by the numeric
// closeness constraint) may read an anchor; only the owner (verifiable by
// PW) may delete it; deployment may be charged a CPU puzzle.
type Directory struct {
	ov  *pastry.Overlay
	mgr *past.Manager

	// PuzzleDifficulty, when positive, requires a hashcash payment per
	// deployment (§3.3's anti-flood charge). Zero disables it.
	PuzzleDifficulty int

	deployed uint64
	rejected uint64

	// recs is the unused rest of the chunk Deploy carves stored records
	// from: the replication manager holds a pointer to each, not a boxed
	// copy.
	recs []Anchor
}

// NewDirectory layers anchor semantics on an existing replication
// manager.
func NewDirectory(ov *pastry.Overlay, mgr *past.Manager) *Directory {
	return &Directory{ov: ov, mgr: mgr}
}

// Manager exposes the underlying replication manager.
func (d *Directory) Manager() *past.Manager { return d.mgr }

// Errors returned by directory operations.
var (
	ErrPuzzleRequired = errors.New("tha: deployment requires a valid puzzle solution")
	ErrNotFound       = errors.New("tha: anchor not found (lost or never deployed)")
	ErrAccessDenied   = errors.New("tha: requester is not in the anchor's replica set")
	ErrBadPassword    = errors.New("tha: password proof failed")
)

// Puzzle returns the CPU-payment challenge for deploying hopid.
func (d *Directory) Puzzle(hopID id.ID) crypt.Puzzle {
	return crypt.Puzzle{Challenge: hopID[:], Difficulty: d.PuzzleDifficulty}
}

// Deploy stores the anchor on its replica set. nonce must solve
// Puzzle(anchor.HopID) when a difficulty is configured; a bad payment is
// rejected before any storage happens.
func (d *Directory) Deploy(a Anchor, nonce uint64) error {
	if d.PuzzleDifficulty > 0 {
		if err := d.Puzzle(a.HopID).Verify(nonce); err != nil {
			d.rejected++
			return fmt.Errorf("%w: %v", ErrPuzzleRequired, err)
		}
	}
	// All replica copies share one key-schedule cell — the one the record
	// came with, which Generate gave its owner, or a new one; the schedule
	// is derived on the first message this anchor processes.
	if a.sealer == nil {
		a.sealer = new(sealerCell)
	}
	if len(d.recs) == 0 {
		d.recs = make([]Anchor, chunk)
	}
	rec := &d.recs[0]
	d.recs = d.recs[1:]
	*rec = a
	if err := d.mgr.Insert(a.HopID, rec); err != nil {
		return fmt.Errorf("tha: deploy: %w", err)
	}
	d.deployed++
	return nil
}

// DeployedCount returns the number of successful deployments.
func (d *Directory) DeployedCount() uint64 { return d.deployed }

// RejectedCount returns the number of deployments rejected for missing
// CPU payment.
func (d *Directory) RejectedCount() uint64 { return d.rejected }

// Available reports whether the anchor still has at least one live
// replica — the condition for its tunnel hop to function.
func (d *Directory) Available(hopID id.ID) bool {
	_, ok := d.mgr.Lookup(hopID)
	return ok
}

// HopNode returns the current tunnel hop node for hopid: the live node
// numerically closest to it. The bool is false when the anchor no longer
// exists (all replicas lost), in which case the hop — and its tunnel — is
// broken even though some node still owns the id space.
func (d *Directory) HopNode(hopID id.ID) (*pastry.Node, bool) {
	if !d.Available(hopID) {
		return nil, false
	}
	return d.ov.OwnerOf(hopID), true
}

// FetchAsHolder returns the anchor to a node claiming to hold it. The
// claim is verified by the paper's "verifiable constraint": the requester
// must actually store the anchor, which the replication manager only does
// for nodes in the hopid's replica set.
func (d *Directory) FetchAsHolder(holder simnet.Addr, hopID id.ID) (Anchor, error) {
	v, ok := d.mgr.StoreAt(holder).Get(hopID)
	if !ok {
		// Either the anchor doesn't exist or this node is not a replica —
		// indistinguishable to the node itself, denied either way.
		return Anchor{}, ErrAccessDenied
	}
	return *v.(*Anchor), nil
}

// FetchAsOwner returns the anchor to a requester proving ownership with
// the password.
func (d *Directory) FetchAsOwner(hopID id.ID, pw crypt.Password) (Anchor, error) {
	v, ok := d.mgr.Lookup(hopID)
	if !ok {
		return Anchor{}, ErrNotFound
	}
	a := v.(*Anchor)
	if !a.PWHash.Verify(pw) {
		return Anchor{}, ErrBadPassword
	}
	return *a, nil
}

// Delete removes the anchor after verifying the password proof (§3.4):
// the replica holders hash the presented PW and compare with the stored
// H(PW).
func (d *Directory) Delete(hopID id.ID, pw crypt.Password) error {
	v, ok := d.mgr.Lookup(hopID)
	if !ok {
		return ErrNotFound
	}
	a := v.(*Anchor)
	if !a.PWHash.Verify(pw) {
		return ErrBadPassword
	}
	if !d.mgr.Delete(hopID) {
		return ErrNotFound
	}
	return nil
}

// ReplicaAddrs returns the addresses currently holding the anchor, the
// set an adversary learns the anchor from if any member is malicious.
func (d *Directory) ReplicaAddrs(hopID id.ID) []simnet.Addr {
	return d.mgr.Replicas(hopID)
}
