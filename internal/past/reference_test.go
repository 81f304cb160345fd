package past

import (
	"fmt"
	"slices"
	"testing"

	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
)

// TestManagerMatchesMapReference drives the Manager and refManager — the
// map-based manager it replaced, frozen below — over one overlay through
// random inserts, deletes, joins, single failures and batches, and
// compares after every step: every node's holdings, every key's replica
// list and lookup, the copy, eviction and loss counts, and whether
// CheckInvariants passes. k runs from 1 to 5, past the entry's inline
// replica capacity; every fourth seed disables migration on both, so
// replica sets drift and CheckInvariants fails on both.
func TestManagerMatchesMapReference(t *testing.T) {
	var lost, evicted, drifted int
	for seed := uint64(1); seed <= 16; seed++ {
		k := 1 + int(seed%5)
		ov, err := pastry.Build(pastry.DefaultConfig(), 48, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		m, ref := NewManager(ov, k), newRefManager(ov, k)
		m.DisableMigration = seed%4 == 0
		ref.DisableMigration = m.DisableMigration
		s := rng.New(seed + 1000)
		var keys []id.ID
		fail := func() {
			if ov.Size() > 2*k+4 {
				if err := ov.Fail(ov.RandomLive(s).Ref().Addr); err != nil {
					t.Fatal(err)
				}
			}
		}
		for step := 0; step < 300; step++ {
			var what string
			switch op := s.Intn(20); {
			case op < 8:
				var key id.ID
				s.Bytes(key[:])
				if len(keys) > 0 && op == 0 {
					key = keys[s.Intn(len(keys))] // a duplicate, unless deleted
				} else {
					keys = append(keys, key)
				}
				what = "insert " + key.Short()
				got, want := m.Insert(key, step), ref.Insert(key, step)
				if (got == nil) != (want == nil) {
					t.Fatalf("seed %d step %d: %s: Insert = %v, reference %v", seed, step, what, got, want)
				}
			case op < 12:
				if len(keys) == 0 {
					continue
				}
				key := keys[s.Intn(len(keys))]
				what = "delete " + key.Short()
				if got, want := m.Delete(key), ref.Delete(key); got != want {
					t.Fatalf("seed %d step %d: %s: Delete = %v, reference %v", seed, step, what, got, want)
				}
			case op < 15:
				what = "join"
				ov.Join()
			case op < 18:
				what = "fail"
				fail()
			default:
				what = "batch"
				m.BeginBatch()
				ref.BeginBatch()
				for i := s.Intn(4); i >= 0; i-- {
					fail()
					if s.Intn(3) == 0 {
						ov.Join()
					}
				}
				m.EndBatch()
				ref.EndBatch()
			}
			if err := sameAsReference(ov, m, ref, keys); err != nil {
				t.Fatalf("seed %d k %d step %d (%s): %v", seed, k, step, what, err)
			}
		}
		lost += m.lost
		evicted += int(m.evicted)
		if m.CheckInvariants() != nil {
			drifted++
		}
	}
	// The sequences reach every path compared: batches that lose whole
	// replica sets, migrations that evict, and drift that fails the check.
	if lost == 0 || evicted == 0 || drifted == 0 {
		t.Fatalf("lost %d, evicted %d, drifted seeds %d: some path went unexercised", lost, evicted, drifted)
	}
}

// sameAsReference compares everything the two managers expose.
func sameAsReference(ov *pastry.Overlay, m *Manager, ref *refManager, keys []id.ID) error {
	if m.copies != ref.copies || m.evicted != ref.evicted || m.lost != ref.lost {
		return fmt.Errorf("copies/evicted/lost %d/%d/%d, reference %d/%d/%d",
			m.copies, m.evicted, m.lost, ref.copies, ref.evicted, ref.lost)
	}
	got, want := m.CheckInvariants(), ref.CheckInvariants()
	if (got == nil) != (want == nil) {
		return fmt.Errorf("CheckInvariants = %v, reference %v", got, want)
	}
	for a := 0; a < ov.NumAddrs(); a++ {
		addr := simnet.Addr(a)
		st, rst := m.StoreAt(addr), ref.StoreAt(addr)
		held, refHeld := st.Keys(), rst.Keys()
		slices.SortFunc(held, id.ID.Cmp)
		slices.SortFunc(refHeld, id.ID.Cmp)
		if !slices.Equal(held, refHeld) || st.Len() != rst.Len() {
			return fmt.Errorf("node %d holds %d keys, reference %d", a, len(held), len(refHeld))
		}
		for _, key := range held {
			v, ok := st.Get(key)
			rv, rok := rst.Get(key)
			if ok != rok || v != rv || !m.HolderHas(addr, key) {
				return fmt.Errorf("node %d: Get(%s) = %v %v, reference %v %v", a, key.Short(), v, ok, rv, rok)
			}
		}
	}
	// Holder checks that should fail, too: each key against an eighth of
	// the addresses.
	for a := 0; a < ov.NumAddrs(); a++ {
		addr := simnet.Addr(a)
		for _, key := range keys {
			if (a+int(key[0]))%8 != 0 {
				continue
			}
			if got, want := m.HolderHas(addr, key), ref.HolderHas(addr, key); got != want {
				return fmt.Errorf("node %d: HolderHas(%s) = %v, reference %v", a, key.Short(), got, want)
			}
			if _, ok := m.StoreAt(addr).Get(key); ok != ref.HolderHas(addr, key) {
				return fmt.Errorf("node %d: Get(%s) found = %v, reference %v", a, key.Short(), ok, !ok)
			}
		}
	}
	for _, key := range keys {
		if r, rr := m.Replicas(key), ref.Replicas(key); !slices.Equal(r, rr) {
			return fmt.Errorf("key %s: replicas %v, reference %v", key.Short(), r, rr)
		}
		v, ok := m.Lookup(key)
		rv, rok := ref.Lookup(key)
		if ok != rok || v != rv {
			return fmt.Errorf("key %s: Lookup = %v %v, reference %v %v", key.Short(), v, ok, rv, rok)
		}
	}
	return nil
}

// --- the map-based manager, frozen --------------------------------------------
//
// The manager as it was before the holder index, renamed, less three
// accessors the comparison reads as fields.

// refStore is one node's local storage: the fragment of the DHT it is
// responsible for, keyed by item key. A node that never stored anything
// has a nil refStore.
type refStore map[id.ID]any

// Get returns the locally stored value for key.
func (s refStore) Get(key id.ID) (any, bool) {
	v, ok := s[key]
	return v, ok
}

// Len returns the number of locally stored items.
func (s refStore) Len() int { return len(s) }

// Keys returns the stored keys in unspecified order.
func (s refStore) Keys() []id.ID {
	out := make([]id.ID, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	return out
}

// refEntry is one item's record: its value and the addresses holding it.
type refEntry struct {
	value    any
	replicas []simnet.Addr
	// inline backs replicas for k ≤ 4, the default k = 3 among them, so
	// an item's record is one allocation.
	inline [4]simnet.Addr
}

// refManager keeps every item on the k live nodes closest to its key.
type refManager struct {
	ov      *pastry.Overlay
	k       int
	entries map[id.ID]*refEntry
	stores  map[simnet.Addr]refStore

	// set and addrs are scratch for one Insert or resync: the oracle
	// replica set, and its addresses. Nothing reads them across calls.
	set   []*pastry.Node
	addrs []simnet.Addr

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

// newRefManager wires a manager with replication factor k to the overlay's
// membership events. Any previously installed overlay callbacks are
// chained, so multiple observers coexist.
func newRefManager(ov *pastry.Overlay, k int) *refManager {
	if k < 1 {
		panic(fmt.Sprintf("past: replication factor %d < 1", k))
	}
	m := &refManager{
		ov:      ov,
		k:       k,
		entries: make(map[id.ID]*refEntry),
		stores:  make(map[simnet.Addr]refStore),
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

// storeOf returns (creating if needed) the local store for addr.
func (m *refManager) storeOf(addr simnet.Addr) refStore {
	s, ok := m.stores[addr]
	if !ok {
		s = make(refStore)
		m.stores[addr] = s
	}
	return s
}

// StoreAt exposes a node's local store; nil if the node never stored
// anything.
func (m *refManager) StoreAt(addr simnet.Addr) refStore { return m.stores[addr] }

// replicaSet computes key's oracle replica set into the manager's scratch.
func (m *refManager) replicaSet(key id.ID) []*pastry.Node {
	m.set = m.ov.AppendReplicaSet(m.set[:0], key, m.k)
	return m.set
}

// Insert stores value under key on the k closest live nodes. Inserting an
// existing key is an error: DHT keys here are hashes chosen to be unique.
func (m *refManager) Insert(key id.ID, value any) error {
	if _, dup := m.entries[key]; dup {
		return fmt.Errorf("past: key %s already stored", key.Short())
	}
	set := m.replicaSet(key)
	if len(set) == 0 {
		return fmt.Errorf("past: no live nodes to store %s", key.Short())
	}
	e := &refEntry{value: value}
	e.replicas = e.inline[:0]
	for _, n := range set {
		addr := simnet.Addr(n.Addr())
		m.storeOf(addr)[key] = value
		e.replicas = append(e.replicas, addr)
		if m.OnReplicate != nil {
			m.OnReplicate(key, addr)
		}
	}
	m.entries[key] = e
	return nil
}

// Delete removes key everywhere and reports whether it existed.
func (m *refManager) Delete(key id.ID) bool {
	e, ok := m.entries[key]
	if !ok {
		return false
	}
	for _, addr := range e.replicas {
		delete(m.stores[addr], key)
	}
	delete(m.entries, key)
	return true
}

// Lookup returns the stored value if at least one live replica holds it.
func (m *refManager) Lookup(key id.ID) (any, bool) {
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
func (m *refManager) Replicas(key id.ID) []simnet.Addr {
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
func (m *refManager) HolderHas(addr simnet.Addr, key id.ID) bool {
	_, ok := m.stores[addr][key]
	return ok
}

// --- migration ---------------------------------------------------------------

// onJoin moves replicas onto a joiner that entered some keys' replica
// sets, and evicts the displaced holders.
func (m *refManager) onJoin(n *pastry.Node) {
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
		s := m.stores[simnet.Addr(nb.Addr())]
		if s == nil {
			continue
		}
		for key := range s {
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
func (m *refManager) onLeave(r pastry.NodeRef) {
	if m.DisableMigration {
		return
	}
	if m.batch {
		m.batchDead = append(m.batchDead, r)
		return
	}
	s := m.stores[r.Addr]
	if s == nil {
		return
	}
	for _, key := range s.Keys() {
		m.resync(key)
	}
}

// resync reconciles one key's replica placement with the oracle replica
// set. A key with no surviving replica is lost and removed.
func (m *refManager) resync(key id.ID) {
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
			delete(m.stores[addr], key)
		}
		delete(m.entries, key)
		m.lost++
		return
	}
	want := m.addrs[:0]
	for _, n := range m.replicaSet(key) {
		addr := simnet.Addr(n.Addr())
		want = append(want, addr)
		st := m.storeOf(addr)
		if _, has := st[key]; !has {
			st[key] = e.value
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
		if _, had := m.stores[addr][key]; had {
			delete(m.stores[addr], key)
			m.evicted++
		}
	}
	e.replicas = append(e.replicas[:0], want...)
}

// BeginBatch suspends migration so a set of failures lands
// simultaneously: no re-replication happens until EndBatch.
func (m *refManager) BeginBatch() {
	if m.batch {
		panic("past: nested batch")
	}
	m.batch = true
}

// EndBatch processes the accumulated failures: every key held by a dead
// node is resynced once, and keys whose whole replica set died are counted
// lost.
func (m *refManager) EndBatch() {
	if !m.batch {
		panic("past: EndBatch without BeginBatch")
	}
	m.batch = false
	seen := make(map[id.ID]struct{})
	for _, r := range m.batchDead {
		s := m.stores[r.Addr]
		if s == nil {
			continue
		}
		for _, key := range s.Keys() {
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

// CheckInvariants verifies that every refEntry's replica list matches the
// oracle replica set and that local stores agree with the refEntry table.
func (m *refManager) CheckInvariants() error {
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
			s := m.stores[addr]
			if s == nil {
				return fmt.Errorf("past: key %s replica store missing at %d", key.Short(), addr)
			}
			if _, ok := s[key]; !ok {
				return fmt.Errorf("past: key %s missing from store at %d", key.Short(), addr)
			}
		}
	}
	// No store may hold a key the refEntry table doesn't know about.
	for addr, s := range m.stores {
		for key := range s {
			e, ok := m.entries[key]
			if !ok {
				return fmt.Errorf("past: orphan key %s in store at %d", key.Short(), addr)
			}
			found := false
			for _, a := range e.replicas {
				if a == addr {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("past: store at %d holds %s but is not a replica", addr, key.Short())
			}
		}
	}
	return nil
}
