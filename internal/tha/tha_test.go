package tha

import (
	"bytes"
	"testing"

	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/past"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
)

func setup(t testing.TB, n, k int, seed uint64) (*pastry.Overlay, *Directory) {
	t.Helper()
	ov, err := pastry.Build(pastry.DefaultConfig(), n, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ov, NewDirectory(ov, past.NewManager(ov, k))
}

func TestGeneratorUniqueAndDeterministicStructure(t *testing.T) {
	s := rng.New(1)
	g, err := NewGenerator([]byte("node-A"), s)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[id.ID]bool{}
	for i := 0; i < 100; i++ {
		sec, err := g.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		if seen[sec.HopID] {
			t.Fatalf("duplicate hopid at %d", i)
		}
		seen[sec.HopID] = true
		if !sec.PWHash.Verify(sec.PW) {
			t.Fatalf("secret PW does not match its own hash")
		}
	}
	if g.Counter() != 100 {
		t.Fatalf("counter = %d", g.Counter())
	}
}

func TestGeneratorsDoNotCollideAcrossNodes(t *testing.T) {
	s := rng.New(2)
	gA, _ := NewGenerator([]byte("node-A"), s)
	gB, _ := NewGenerator([]byte("node-B"), s)
	seen := map[id.ID]bool{}
	for i := 0; i < 200; i++ {
		a, _ := gA.Generate(s)
		b, _ := gB.Generate(s)
		if seen[a.HopID] || seen[b.HopID] || a.HopID == b.HopID {
			t.Fatalf("cross-node hopid collision")
		}
		seen[a.HopID] = true
		seen[b.HopID] = true
	}
}

func TestGeneratorUnlinkableWithoutHkey(t *testing.T) {
	// An observer knowing node_ID and t but not hkey cannot recompute the
	// hopid: H(node_ID ‖ t) must differ from H(node_ID ‖ hkey ‖ t).
	s := rng.New(3)
	g, _ := NewGenerator([]byte("node-A"), s)
	sec, _ := g.Generate(s)
	guess := id.Hash([]byte("node-A"), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	if sec.HopID == guess {
		t.Fatalf("hopid recomputable without hkey")
	}
}

func TestDeployFetchLifecycle(t *testing.T) {
	ov, d := setup(t, 100, 3, 4)
	s := rng.New(5)
	g, _ := NewGenerator([]byte("init"), s)
	sec, _ := g.Generate(s)

	if d.Available(sec.HopID) {
		t.Fatalf("anchor available before deployment")
	}
	if err := d.Deploy(sec.Anchor, 0); err != nil {
		t.Fatal(err)
	}
	if !d.Available(sec.HopID) {
		t.Fatalf("anchor unavailable after deployment")
	}

	// The hop node is the overlay owner and can fetch as holder.
	hop, ok := d.HopNode(sec.HopID)
	if !ok {
		t.Fatalf("no hop node")
	}
	if hop.ID() != ov.OwnerOf(sec.HopID).ID() {
		t.Fatalf("hop node is not the numerically closest node")
	}
	got, err := d.FetchAsHolder(hop.Ref().Addr, sec.HopID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != sec.Key {
		t.Fatalf("fetched key mismatch")
	}

	// All k replica holders can fetch; a random outsider cannot.
	for _, addr := range d.ReplicaAddrs(sec.HopID) {
		if _, err := d.FetchAsHolder(addr, sec.HopID); err != nil {
			t.Fatalf("replica holder %d denied: %v", addr, err)
		}
	}
	outsider := findOutsider(t, ov, d, sec.HopID)
	if _, err := d.FetchAsHolder(outsider, sec.HopID); err != ErrAccessDenied {
		t.Fatalf("outsider fetch err = %v, want ErrAccessDenied", err)
	}
}

func findOutsider(t *testing.T, ov *pastry.Overlay, d *Directory, hopID id.ID) simnet.Addr {
	t.Helper()
	replicas := map[simnet.Addr]bool{}
	for _, a := range d.ReplicaAddrs(hopID) {
		replicas[a] = true
	}
	for _, r := range ov.LiveRefs() {
		if !replicas[r.Addr] {
			return r.Addr
		}
	}
	t.Fatalf("no outsider found")
	return 0
}

func TestFetchAsOwner(t *testing.T) {
	_, d := setup(t, 60, 3, 6)
	s := rng.New(7)
	g, _ := NewGenerator([]byte("init"), s)
	sec, _ := g.Generate(s)
	if err := d.Deploy(sec.Anchor, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.FetchAsOwner(sec.HopID, sec.PW); err != nil {
		t.Fatalf("owner fetch failed: %v", err)
	}
	var wrong crypt.Password
	if _, err := d.FetchAsOwner(sec.HopID, wrong); err != ErrBadPassword {
		t.Fatalf("wrong pw err = %v", err)
	}
	if _, err := d.FetchAsOwner(id.HashString("nope"), sec.PW); err != ErrNotFound {
		t.Fatalf("missing anchor err = %v", err)
	}
}

func TestDeleteRequiresPassword(t *testing.T) {
	_, d := setup(t, 60, 3, 8)
	s := rng.New(9)
	g, _ := NewGenerator([]byte("init"), s)
	sec, _ := g.Generate(s)
	if err := d.Deploy(sec.Anchor, 0); err != nil {
		t.Fatal(err)
	}
	var wrong crypt.Password
	if err := d.Delete(sec.HopID, wrong); err != ErrBadPassword {
		t.Fatalf("delete with wrong pw err = %v", err)
	}
	if !d.Available(sec.HopID) {
		t.Fatalf("failed delete removed the anchor")
	}
	if err := d.Delete(sec.HopID, sec.PW); err != nil {
		t.Fatal(err)
	}
	if d.Available(sec.HopID) {
		t.Fatalf("anchor still available after delete")
	}
	if err := d.Delete(sec.HopID, sec.PW); err != ErrNotFound {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestDeployPuzzleCharge(t *testing.T) {
	_, d := setup(t, 40, 3, 10)
	d.PuzzleDifficulty = 8
	s := rng.New(11)
	g, _ := NewGenerator([]byte("init"), s)
	sec, _ := g.Generate(s)

	if err := d.Deploy(sec.Anchor, 999999); err == nil {
		t.Fatalf("unpaid deployment accepted")
	}
	if d.RejectedCount() != 1 {
		t.Fatalf("rejected count = %d", d.RejectedCount())
	}
	nonce := d.Puzzle(sec.HopID).Mint()
	if err := d.Deploy(sec.Anchor, nonce); err != nil {
		t.Fatalf("paid deployment rejected: %v", err)
	}
	if d.DeployedCount() != 1 {
		t.Fatalf("deployed count = %d", d.DeployedCount())
	}
}

func TestHopNodeFailsOverToCandidate(t *testing.T) {
	// The heart of TAP: kill the hop node and the anchor must resurface on
	// a candidate, with the same key.
	ov, d := setup(t, 120, 3, 12)
	s := rng.New(13)
	g, _ := NewGenerator([]byte("init"), s)
	sec, _ := g.Generate(s)
	if err := d.Deploy(sec.Anchor, 0); err != nil {
		t.Fatal(err)
	}
	hop1, _ := d.HopNode(sec.HopID)
	if err := ov.Fail(hop1.Ref().Addr); err != nil {
		t.Fatal(err)
	}
	hop2, ok := d.HopNode(sec.HopID)
	if !ok {
		t.Fatalf("anchor lost after a single hop-node failure")
	}
	if hop2.ID() == hop1.ID() {
		t.Fatalf("hop node did not change")
	}
	got, err := d.FetchAsHolder(hop2.Ref().Addr, sec.HopID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != sec.Key {
		t.Fatalf("successor hop node has wrong key")
	}
}

func TestAnchorLostWhenAllReplicasFail(t *testing.T) {
	ov, d := setup(t, 100, 3, 14)
	s := rng.New(15)
	g, _ := NewGenerator([]byte("init"), s)
	sec, _ := g.Generate(s)
	if err := d.Deploy(sec.Anchor, 0); err != nil {
		t.Fatal(err)
	}
	d.Manager().BeginBatch()
	for _, addr := range d.ReplicaAddrs(sec.HopID) {
		if err := ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
	}
	d.Manager().EndBatch()
	if d.Available(sec.HopID) {
		t.Fatalf("anchor survived simultaneous loss of all replicas")
	}
	if _, ok := d.HopNode(sec.HopID); ok {
		t.Fatalf("HopNode returned a node for a lost anchor")
	}
}

func genPool(t *testing.T, n int, seed uint64) []Secret {
	t.Helper()
	s := rng.New(seed)
	g, _ := NewGenerator([]byte("init"), s)
	pool := make([]Secret, n)
	for i := range pool {
		sec, err := g.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = sec
	}
	return pool
}

func TestChooseScatteredDiversity(t *testing.T) {
	pool := genPool(t, 64, 16)
	s := rng.New(17)
	chosen, err := ChooseScattered(nil, pool, 5, 4, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 5 {
		t.Fatalf("chose %d anchors", len(chosen))
	}
	// With 64 anchors across 16 digit buckets, 5 distinct leading digits
	// should essentially always be possible.
	if div := PrefixDiversity(chosen, 4); div != 5 {
		t.Fatalf("prefix diversity %d, want 5", div)
	}
	// No duplicate anchors.
	seen := map[id.ID]bool{}
	for _, c := range chosen {
		if seen[c.HopID] {
			t.Fatalf("duplicate anchor chosen")
		}
		seen[c.HopID] = true
	}
}

func TestChooseScatteredSmallPoolFallsBack(t *testing.T) {
	// A pool concentrated in one digit can still form a tunnel, just
	// without diversity.
	s := rng.New(18)
	pool := genPool(t, 200, 19)
	var same []Secret
	want := pool[0].HopID.Digit(0, 4)
	for _, p := range pool {
		if p.HopID.Digit(0, 4) == want {
			same = append(same, p)
		}
	}
	if len(same) < 3 {
		t.Skip("pool did not concentrate; statistically near-impossible")
	}
	chosen, err := ChooseScattered(nil, same[:3], 3, 4, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 3 {
		t.Fatalf("chose %d", len(chosen))
	}
}

func TestChooseScatteredErrors(t *testing.T) {
	pool := genPool(t, 3, 20)
	s := rng.New(21)
	if _, err := ChooseScattered(nil, pool, 5, 4, s); err == nil {
		t.Fatalf("undersized pool accepted")
	}
	if _, err := ChooseScattered(nil, pool, 0, 4, s); err == nil {
		t.Fatalf("zero length accepted")
	}
}

func TestChooseScatteredBeatsRandomOnAverage(t *testing.T) {
	// Property behind the §3.5 rule: scattered choice yields at least the
	// prefix diversity of uniform random choice.
	pool := genPool(t, 32, 22)
	s := rng.New(23)
	const trials = 200
	scatterTotal, randomTotal := 0, 0
	for i := 0; i < trials; i++ {
		chosen, err := ChooseScattered(nil, pool, 5, 4, s)
		if err != nil {
			t.Fatal(err)
		}
		scatterTotal += PrefixDiversity(chosen, 4)
		idx := s.PermFirstK(len(pool), 5)
		rnd := make([]Secret, 5)
		for j, ix := range idx {
			rnd[j] = pool[ix]
		}
		randomTotal += PrefixDiversity(rnd, 4)
	}
	if scatterTotal < randomTotal {
		t.Fatalf("scattered diversity %d below random %d", scatterTotal, randomTotal)
	}
}

// TestGenerateAllocs: the key and password are drawn through the
// generator's own scratch and the key-schedule cell is cut from a chunk,
// so minting an anchor allocates nothing of its own.
func TestGenerateAllocs(t *testing.T) {
	s := rng.New(31)
	g, err := NewGenerator([]byte("init"), s)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := g.Generate(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Generate makes %.0f allocations per anchor, want 0", allocs)
	}
}

// TestDeployAllocsPerAnchor: with every node already holding anchors,
// deploying one at k = 3 allocates nothing of its own. It keeps the
// key-schedule cell Generate minted; its stored record, its entry (with
// the replica list inline) and its place in each holder's key list are
// carved from chunks; the replica set is computed into the manager's
// buffer.
func TestDeployAllocsPerAnchor(t *testing.T) {
	_, d := setup(t, 100, 3, 32)
	pool := genPool(t, 3000, 33)
	for _, sec := range pool[:2000] {
		if err := d.Deploy(sec.Anchor, 0); err != nil {
			t.Fatal(err)
		}
	}
	next := 2000
	allocs := testing.AllocsPerRun(900, func() {
		if err := d.Deploy(pool[next].Anchor, 0); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("Deploy at k = 3: %.0f allocations per anchor", allocs)
	if allocs > 0 {
		t.Fatalf("Deploy at k = 3 makes %.0f allocations per anchor, want 0", allocs)
	}
}

// sealsUnder reports whether what s seals opens under key k and only k.
func sealsUnder(t *testing.T, s *crypt.Sealer, k, other crypt.Key) bool {
	t.Helper()
	sealed, err := s.SealTo(nil, bytes.NewReader(make([]byte, 64)), []byte("layer"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := crypt.NewSealer(k).OpenTo(nil, sealed)
	_, otherErr := crypt.NewSealer(other).OpenTo(nil, sealed)
	return err == nil && string(got) == "layer" && otherErr != nil
}

// TestRekeyedSharesTheSparesCell: Rekeyed gives a bare record a key
// schedule — in a new cell when the spare has none, in the spare's own
// cell when it has one — and the record it was called on stays bare. A
// record with a cell returns the same schedule on every call.
func TestRekeyedSharesTheSparesCell(t *testing.T) {
	var k1, k2 crypt.Key
	s := rng.New(7)
	s.Bytes(k1[:])
	s.Bytes(k2[:])
	bare := Anchor{HopID: id.HashString("h1"), Key: k1}
	r1 := bare.Rekeyed(Anchor{})
	if bare.HasSealerCache() || !r1.HasSealerCache() {
		t.Fatalf("bare has cell %v, rekeyed has cell %v; want false, true", bare.HasSealerCache(), r1.HasSealerCache())
	}
	cell := r1.Sealer()
	if r1.Sealer() != cell || !sealsUnder(t, cell, k1, k2) {
		t.Fatal("a rekeyed record's schedule is not one stable schedule for its key")
	}
	r2 := Anchor{HopID: id.HashString("h2"), Key: k2}.Rekeyed(r1)
	if r2.Sealer() != cell || !sealsUnder(t, cell, k2, k1) {
		t.Fatal("rekeying into a spare did not rewrite the spare's cell for the new key")
	}
}

// TestBareAnchorSealerIsThrowaway: a record without a cell — what a node
// decodes off the wire — derives a fresh schedule on every call, each
// sealing under the record's key.
func TestBareAnchorSealerIsThrowaway(t *testing.T) {
	var k, other crypt.Key
	s := rng.New(8)
	s.Bytes(k[:])
	s.Bytes(other[:])
	bare := Anchor{HopID: id.HashString("h"), Key: k}
	a, b := bare.Sealer(), bare.Sealer()
	if a == b {
		t.Fatal("a bare record handed out one schedule twice")
	}
	if !sealsUnder(t, a, k, other) || !sealsUnder(t, b, k, other) || bare.HasSealerCache() {
		t.Fatal("a bare record's schedule does not seal under its key, or the record kept it")
	}
}
