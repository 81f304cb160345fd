package tha

import (
	"testing"
	"testing/quick"

	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/rng"
)

// Property: anchors generated from any (nodeID, seed) pair have
// self-consistent password proofs, and wrong passwords never verify.
func TestPropAnchorPasswordSoundness(t *testing.T) {
	f := func(nodeID []byte, seed uint64, wrongRaw [16]byte) bool {
		s := rng.New(seed)
		g, err := NewGenerator(nodeID, s)
		if err != nil {
			return false
		}
		sec, err := g.Generate(s)
		if err != nil {
			return false
		}
		if !sec.PWHash.Verify(sec.PW) {
			return false
		}
		wrong := crypt.Password(wrongRaw)
		if wrong != sec.PW && sec.PWHash.Verify(wrong) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: hopids are unique across generators and across the counter,
// for arbitrary node identifiers.
func TestPropHopIDUniqueness(t *testing.T) {
	seen := make(map[id.ID]bool)
	f := func(nodeID []byte, seed uint64) bool {
		s := rng.New(seed)
		g, err := NewGenerator(nodeID, s)
		if err != nil {
			return false
		}
		for i := 0; i < 4; i++ {
			sec, err := g.Generate(s)
			if err != nil {
				return false
			}
			if seen[sec.HopID] {
				return false
			}
			seen[sec.HopID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: ChooseScattered returns exactly l anchors, all from the
// pool, with no duplicates, for any pool ordering.
func TestPropChooseScatteredSound(t *testing.T) {
	s := rng.New(77)
	g, err := NewGenerator([]byte("prop"), s)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]Secret, 24)
	inPool := make(map[id.ID]bool, len(pool))
	for i := range pool {
		sec, err := g.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = sec
		inPool[sec.HopID] = true
	}
	f := func(seed uint64, lRaw uint8) bool {
		l := int(lRaw%8) + 1
		stream := rng.New(seed)
		chosen, err := ChooseScattered(nil, pool, l, 4, stream)
		if err != nil {
			return false
		}
		if len(chosen) != l {
			return false
		}
		dup := make(map[id.ID]bool, l)
		for _, c := range chosen {
			if !inPool[c.HopID] || dup[c.HopID] {
				return false
			}
			dup[c.HopID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
