package dst

import (
	"reflect"
	"testing"
)

// maxShrunk bounds a plant's shrunk counterexample size, by plant name;
// a plant not named here gets 25 events. The pool plants need only a pool
// and one partition to fire, so their traces must shrink to a handful.
var maxShrunk = map[string]int{"stall-rebuild": 5, "uncapped-rebuild": 5}

// mutationSeedBudget bounds how many generated seeds a planted bug may
// take to trip its checker. The weakest plant (disable-ack-dedup, which
// needs a seed where a message's retransmitted copy lands after the
// original) fires within the first 5 seeds; 20 leaves headroom against
// generator drift.
const mutationSeedBudget = 20

// firstFiringSeed scans the seed budget for the first seed on which
// Plants[i] trips its designated checker, failing the test if any seed
// trips a *different* checker first (a cross-firing plant means the
// checker attribution is wrong).
func firstFiringSeed(t *testing.T, i int) uint64 {
	t.Helper()
	c := Plants[i]
	for seed := uint64(1); seed <= mutationSeedBudget; seed++ {
		res := Run(Gen(seed, c.Profile), c.Mutations)
		if res.Err != nil {
			t.Fatalf("seed %d: infrastructure error: %v", seed, res.Err)
		}
		if res.Violation == nil {
			continue
		}
		if res.Violation.Checker != c.Checker {
			t.Fatalf("seed %d: plant %s tripped checker %s, want %s: %s",
				seed, c.Name, res.Violation.Checker, c.Checker, res.Violation.Msg)
		}
		return seed
	}
	t.Fatalf("plant %s never tripped %s within %d seeds", c.Name, c.Checker, mutationSeedBudget)
	return 0
}

// TestMutationsCaught is the checker self-test: every planted bug must
// make its matching invariant fire within the seed budget, and the honest
// (unmutated) replay of the same scenario must stay clean — proving the
// checker reacts to the bug, not to the scenario.
func TestMutationsCaught(t *testing.T) {
	for i, c := range Plants {
		t.Run(c.Name, func(t *testing.T) {
			seed := firstFiringSeed(t, i)
			sc := Gen(seed, c.Profile)
			honest := Run(sc, Mutations{})
			if honest.Violation != nil {
				t.Fatalf("seed %d: honest run of the firing scenario violated %s: %s",
					seed, honest.Violation.Checker, honest.Violation.Msg)
			}
		})
	}
}

// TestMutationShrinks runs the shrinker on each plant's first firing
// scenario: the shrunk schedule must stay under the case's
// counterexample size bound, still trip the same checker, and replay
// deterministically.
func TestMutationShrinks(t *testing.T) {
	for i, c := range Plants {
		t.Run(c.Name, func(t *testing.T) {
			seed := firstFiringSeed(t, i)
			sr := Shrink(Gen(seed, c.Profile), c.Mutations, 0)
			if sr.Violation == nil {
				t.Fatalf("shrink lost the violation")
			}
			if sr.Violation.Checker != c.Checker {
				t.Fatalf("shrunk violation moved to checker %s, want %s", sr.Violation.Checker, c.Checker)
			}
			bound, ok := maxShrunk[c.Name]
			if !ok {
				bound = 25
			}
			if got := len(sr.Scenario.Events); got > bound {
				t.Fatalf("shrunk schedule has %d events, want <= %d (from %d)",
					got, bound, sr.Original)
			}
			if len(sr.Scenario.Events) >= sr.Original && sr.Original > 1 {
				t.Fatalf("shrinker removed nothing (%d events)", sr.Original)
			}
			// The shrunk scenario replays to the identical violation.
			again := Run(sr.Scenario, c.Mutations)
			if !reflect.DeepEqual(again.Violation, sr.Violation) {
				t.Fatalf("shrunk replay diverged:\n%+v\n%+v", again.Violation, sr.Violation)
			}
		})
	}
}

// TestMutationTraceRoundTrip dumps a shrunk counterexample to its trace
// JSON, reloads it, and replays the reloaded scenario — the full
// tapcheck artifact cycle.
func TestMutationTraceRoundTrip(t *testing.T) {
	c := Plants[0]
	seed := firstFiringSeed(t, 0)
	sr := Shrink(Gen(seed, c.Profile), c.Mutations, 0)
	tr := NewTrace(sr)
	blob, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(blob)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(back.Scenario, c.Mutations)
	if !reflect.DeepEqual(res.Violation, sr.Violation) {
		t.Fatalf("trace replay diverged:\n%+v\n%+v", res.Violation, sr.Violation)
	}
}
