// Package past is the PAST-style replicated storage layer TAP anchors
// tunnel hops in.
//
// PAST (Rowstron & Druschel, SOSP'01) stores each item on the k nodes
// whose nodeIds are numerically closest to the item's key and keeps that
// invariant across membership changes via a replication manager. TAP's
// whole fault-tolerance story rests on exactly that invariant: a tunnel
// hop anchor survives "unless all k nodes have failed simultaneously".
//
// The Manager here maintains the invariant the way FreePastry's replica
// manager does — eagerly after every join and departure — and adds batch
// semantics (BeginBatch/EndBatch) so experiments can model *simultaneous*
// failures: inside a batch no re-replication happens, and items whose
// entire replica set died are lost, which is the quantity Figure 2
// measures.
//
// Values are held as opaque interface values: all peers live in one
// process, so serialization would add cost without adding fidelity. Item
// payload sizes for the network model are supplied by the caller where
// they matter.
package past

import (
	"fmt"
	"slices"

	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/simnet"
)

// Store is one node's local storage: the fragment of the DHT it is
// responsible for. It is a view into the manager, so it reads the node's
// holdings as they are when a method is called.
type Store struct {
	m    *Manager
	addr simnet.Addr
}

// Get returns the locally stored value for key.
func (s Store) Get(key id.ID) (any, bool) {
	if e := s.m.heldEntry(s.addr, key); e != nil {
		return e.value, true
	}
	return nil, false
}

// Len returns the number of locally stored items.
func (s Store) Len() int { return len(s.m.keysAt(s.addr)) }

// Keys returns the stored keys in unspecified order.
func (s Store) Keys() []id.ID { return slices.Clone(s.m.keysAt(s.addr)) }

// entry is one item's record: its value and the addresses holding it.
type entry struct {
	value    any
	replicas []simnet.Addr
	// inline backs replicas for k ≤ 4, the default k = 3 among them, so
	// an item's record needs no storage of its own.
	inline [4]simnet.Addr
}

// Allocation sizes: entries come entryChunk at a time, and a node's first
// holdings list is cut holdCap keys long from a slab of holdSlab keys.
const (
	entryChunk = 64
	holdCap    = 4
	holdSlab   = 256 * holdCap
)

// Manager keeps every item on the k live nodes closest to its key.
//
// Each item's entry lists the addresses holding it, and each node's
// holdings list the keys it holds: a node holds a key exactly when the
// key's entry lists the node, so the holder check reads the entry's short
// replica list, and the holdings serve only what walks a node's keys.
type Manager struct {
	ov      *pastry.Overlay
	k       int
	entries map[id.ID]*entry

	// holdings is indexed by node address: the keys each node holds, nil
	// for a node that never stored anything.
	holdings [][]id.ID
	slab     []id.ID
	// chunk is the unused rest of the block entries are carved from, and
	// free holds the entries of removed items for reuse.
	chunk []entry
	free  []*entry

	// set and addrs are scratch for one Insert or resync: the oracle
	// replica set, and its addresses. keys is scratch for a snapshot of
	// one node's holdings, which resync edits while its caller walks
	// them. Nothing reads them across calls.
	set   []*pastry.Node
	addrs []simnet.Addr
	keys  []id.ID

	batch     bool
	batchDead []pastry.NodeRef

	lost    int
	copies  uint64 // replica copies made during migration, for accounting
	evicted uint64 // replicas dropped because a node left a replica set

	// OnReplicate observes every placement of a replica on a node — both
	// initial insertion and migration copies. TAP's adversary model hooks
	// it: an anchor leaks the moment any colluding node receives a copy,
	// and the leak is permanent.
	OnReplicate func(key id.ID, addr simnet.Addr)

	// DisableMigration is a fault-injection seam in the spirit of
	// core.Service.HopFilter: when set, membership changes no longer
	// trigger replica migration, so replica sets drift away from the
	// oracle. The simulation checker plants it to prove its replication
	// invariant actually fires. Never set it in a real deployment path.
	DisableMigration bool
}

// NewManager wires a manager with replication factor k to the overlay's
// membership events. Any previously installed overlay callbacks are
// chained, so multiple observers coexist.
func NewManager(ov *pastry.Overlay, k int) *Manager {
	if k < 1 {
		panic(fmt.Sprintf("past: replication factor %d < 1", k))
	}
	m := &Manager{
		ov:       ov,
		k:        k,
		entries:  make(map[id.ID]*entry),
		holdings: make([][]id.ID, ov.NumAddrs()),
	}
	prevJoin, prevLeave := ov.OnJoin, ov.OnLeave
	ov.OnJoin = func(n *pastry.Node) {
		m.onJoin(n)
		if prevJoin != nil {
			prevJoin(n)
		}
	}
	ov.OnLeave = func(r pastry.NodeRef) {
		m.onLeave(r)
		if prevLeave != nil {
			prevLeave(r)
		}
	}
	return m
}

// K returns the replication factor.
func (m *Manager) K() int { return m.k }

// LostCount returns the number of items lost because their whole replica
// set failed within one batch.
func (m *Manager) LostCount() int { return m.lost }

// CopyCount returns the number of replica copies migration has made.
func (m *Manager) CopyCount() uint64 { return m.copies }

// newEntry returns an empty entry for value, reusing a removed item's.
func (m *Manager) newEntry(value any) *entry {
	var e *entry
	if n := len(m.free); n > 0 {
		e, m.free = m.free[n-1], m.free[:n-1]
	} else {
		if len(m.chunk) == 0 {
			m.chunk = make([]entry, entryChunk)
		}
		e, m.chunk = &m.chunk[0], m.chunk[1:]
	}
	e.value = value
	e.replicas = e.inline[:0]
	return e
}

// remove forgets key, whose replicas have already been dropped.
func (m *Manager) remove(key id.ID, e *entry) {
	delete(m.entries, key)
	*e = entry{}
	m.free = append(m.free, e)
}

// hold adds key to the holdings of the node at addr.
func (m *Manager) hold(addr simnet.Addr, key id.ID) {
	for int(addr) >= len(m.holdings) {
		m.holdings = append(m.holdings, nil)
	}
	keys := m.holdings[addr]
	if keys == nil {
		if len(m.slab) < holdCap {
			m.slab = make([]id.ID, holdSlab)
		}
		keys, m.slab = m.slab[:0:holdCap], m.slab[holdCap:]
	}
	m.holdings[addr] = append(keys, key)
}

// keysAt returns the keys the node at addr holds.
func (m *Manager) keysAt(addr simnet.Addr) []id.ID {
	if int(addr) < 0 || int(addr) >= len(m.holdings) {
		return nil
	}
	return m.holdings[addr]
}

// drop removes key from the holdings of the node at addr and reports
// whether it was there.
func (m *Manager) drop(addr simnet.Addr, key id.ID) bool {
	keys := m.keysAt(addr)
	i := slices.Index(keys, key)
	if i < 0 {
		return false
	}
	last := len(keys) - 1
	keys[i] = keys[last]
	m.holdings[addr] = keys[:last]
	return true
}

// heldEntry returns key's entry when the node at addr holds it.
func (m *Manager) heldEntry(addr simnet.Addr, key id.ID) *entry {
	if e := m.entries[key]; e != nil && slices.Contains(e.replicas, addr) {
		return e
	}
	return nil
}

// snapshot copies the keys the node at addr holds into the manager's
// scratch, for a caller that resyncs them one by one.
func (m *Manager) snapshot(addr simnet.Addr) []id.ID {
	m.keys = append(m.keys[:0], m.keysAt(addr)...)
	return m.keys
}

// StoreAt exposes a node's local store.
func (m *Manager) StoreAt(addr simnet.Addr) Store { return Store{m: m, addr: addr} }

// replicaSet computes key's oracle replica set into the manager's scratch.
func (m *Manager) replicaSet(key id.ID) []*pastry.Node {
	m.set = m.ov.AppendReplicaSet(m.set[:0], key, m.k)
	return m.set
}

// Insert stores value under key on the k closest live nodes. Inserting an
// existing key is an error: DHT keys here are hashes chosen to be unique.
func (m *Manager) Insert(key id.ID, value any) error {
	if _, dup := m.entries[key]; dup {
		return fmt.Errorf("past: key %s already stored", key.Short())
	}
	set := m.replicaSet(key)
	if len(set) == 0 {
		return fmt.Errorf("past: no live nodes to store %s", key.Short())
	}
	e := m.newEntry(value)
	for _, n := range set {
		addr := simnet.Addr(n.Addr())
		m.hold(addr, key)
		e.replicas = append(e.replicas, addr)
		if m.OnReplicate != nil {
			m.OnReplicate(key, addr)
		}
	}
	m.entries[key] = e
	return nil
}

// Delete removes key everywhere and reports whether it existed.
func (m *Manager) Delete(key id.ID) bool {
	e, ok := m.entries[key]
	if !ok {
		return false
	}
	for _, addr := range e.replicas {
		m.drop(addr, key)
	}
	m.remove(key, e)
	return true
}

// Lookup returns the stored value if at least one live replica holds it.
func (m *Manager) Lookup(key id.ID) (any, bool) {
	e, ok := m.entries[key]
	if !ok {
		return nil, false
	}
	for _, addr := range e.replicas {
		if m.ov.Node(addr) != nil && m.ov.Node(addr).Alive() {
			return e.value, true
		}
	}
	return nil, false
}

// Replicas returns the addresses currently holding key, in order of
// increasing distance at the time of the last migration.
func (m *Manager) Replicas(key id.ID) []simnet.Addr {
	e, ok := m.entries[key]
	if !ok {
		return nil
	}
	out := make([]simnet.Addr, len(e.replicas))
	copy(out, e.replicas)
	return out
}

// HolderHas reports whether the node at addr locally stores key — the
// check a tunnel hop node performs before it can decrypt a layer.
func (m *Manager) HolderHas(addr simnet.Addr, key id.ID) bool {
	return m.heldEntry(addr, key) != nil
}

// --- migration ---------------------------------------------------------------

// onJoin moves replicas onto a joiner that entered some keys' replica
// sets, and evicts the displaced holders.
func (m *Manager) onJoin(n *pastry.Node) {
	if m.DisableMigration {
		return
	}
	if m.batch {
		// Joins inside a batch are deferred with the leaves and settled at
		// EndBatch, after the dust clears.
		return
	}
	// Candidate keys live on the positional ring neighbors of the joiner:
	// a key whose replica set now includes the joiner lies within k
	// positions of it, and that key's current holders lie within k
	// positions of the key — so every affected store is within 2k
	// positions of the joiner. The bound is positional, not
	// distance-based: id clumping cannot defeat it.
	neighbors := m.ov.RingNeighbors(n.ID(), 2*m.k+2)
	seen := make(map[id.ID]struct{})
	for _, nb := range neighbors {
		for _, key := range m.snapshot(simnet.Addr(nb.Addr())) {
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			m.resync(key)
		}
	}
}

// onLeave restores the replication factor for every key the departed node
// held.
func (m *Manager) onLeave(r pastry.NodeRef) {
	if m.DisableMigration {
		return
	}
	if m.batch {
		m.batchDead = append(m.batchDead, r)
		return
	}
	for _, key := range m.snapshot(r.Addr) {
		m.resync(key)
	}
}

// resync reconciles one key's replica placement with the oracle replica
// set. A key with no surviving replica is lost and removed.
func (m *Manager) resync(key id.ID) {
	e, ok := m.entries[key]
	if !ok {
		return
	}
	// Does any current holder survive? Without a survivor there is nobody
	// to copy from: the item is gone, exactly the "all k failed
	// simultaneously" case.
	alive := false
	for _, addr := range e.replicas {
		n := m.ov.Node(addr)
		if n != nil && n.Alive() {
			alive = true
			break
		}
	}
	if !alive {
		for _, addr := range e.replicas {
			m.drop(addr, key)
		}
		m.remove(key, e)
		m.lost++
		return
	}
	want := m.addrs[:0]
	for _, n := range m.replicaSet(key) {
		addr := simnet.Addr(n.Addr())
		want = append(want, addr)
		if !slices.Contains(e.replicas, addr) {
			m.hold(addr, key)
			m.copies++
			if m.OnReplicate != nil {
				m.OnReplicate(key, addr)
			}
		}
	}
	m.addrs = want
	for _, addr := range e.replicas {
		if slices.Contains(want, addr) {
			continue
		}
		if m.drop(addr, key) {
			m.evicted++
		}
	}
	e.replicas = append(e.replicas[:0], want...)
}

// BeginBatch suspends migration so a set of failures lands
// simultaneously: no re-replication happens until EndBatch.
func (m *Manager) BeginBatch() {
	if m.batch {
		panic("past: nested batch")
	}
	m.batch = true
}

// EndBatch processes the accumulated failures: every key held by a dead
// node is resynced once, and keys whose whole replica set died are counted
// lost.
func (m *Manager) EndBatch() {
	if !m.batch {
		panic("past: EndBatch without BeginBatch")
	}
	m.batch = false
	seen := make(map[id.ID]struct{})
	for _, r := range m.batchDead {
		for _, key := range m.snapshot(r.Addr) {
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			m.resync(key)
		}
	}
	m.batchDead = m.batchDead[:0]
	// Joins that happened inside the batch may also have shifted replica
	// sets; a full sweep of dirty regions is unnecessary because resync
	// already reconciles against the post-batch oracle. Keys untouched by
	// any dead node but displaced by joiners are reconciled lazily by
	// CheckInvariants callers or the next event.
}

// CheckInvariants verifies that every entry's replica list matches the
// oracle replica set and that local stores agree with the entry table.
func (m *Manager) CheckInvariants() error {
	for key, e := range m.entries {
		want := m.ov.ReplicaSet(key, m.k)
		if len(want) != len(e.replicas) {
			return fmt.Errorf("past: key %s has %d replicas, oracle wants %d", key.Short(), len(e.replicas), len(want))
		}
		wantSet := make(map[simnet.Addr]struct{}, len(want))
		for _, n := range want {
			wantSet[simnet.Addr(n.Addr())] = struct{}{}
		}
		for _, addr := range e.replicas {
			if _, ok := wantSet[addr]; !ok {
				return fmt.Errorf("past: key %s replica at %d not in oracle set", key.Short(), addr)
			}
			keys := m.keysAt(addr)
			if keys == nil {
				return fmt.Errorf("past: key %s replica store missing at %d", key.Short(), addr)
			}
			if !slices.Contains(keys, key) {
				return fmt.Errorf("past: key %s missing from store at %d", key.Short(), addr)
			}
		}
	}
	// No store may hold a key the entry table doesn't know about.
	for addr, keys := range m.holdings {
		for _, key := range keys {
			e, ok := m.entries[key]
			if !ok {
				return fmt.Errorf("past: orphan key %s in store at %d", key.Short(), addr)
			}
			if !slices.Contains(e.replicas, simnet.Addr(addr)) {
				return fmt.Errorf("past: store at %d holds %s but is not a replica", addr, key.Short())
			}
		}
	}
	return nil
}
