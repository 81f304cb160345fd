package dst

import (
	"reflect"
	"testing"
	"time"
)

// TestCleanScenariosHold runs honest (unmutated) scenarios across seeds
// and profiles: no invariant may fire, no infrastructure error may
// occur, and the schedule must actually exercise the system.
func TestCleanScenariosHold(t *testing.T) {
	profiles := []Profile{ProfileFull, ProfileMembership, ProfileStorage, ProfilePool, ProfileStream}
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for _, p := range profiles {
		applied, delivered := 0, 0
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			res := Run(Gen(seed, p), Mutations{})
			if res.Err != nil {
				t.Fatalf("profile %s seed %d: %v", p, seed, res.Err)
			}
			if res.Violation != nil {
				t.Fatalf("profile %s seed %d: honest run violated invariant: %s",
					p, seed, res.Violation)
			}
			applied += len(res.Scenario.Events) - res.Skipped
			delivered += res.Delivered
		}
		if applied == 0 {
			t.Fatalf("profile %s: every event skipped — scenarios exercise nothing", p)
		}
		if (p == ProfileFull || p == ProfileStream) && delivered == 0 {
			t.Fatalf("%s profile delivered no flows across %d seeds", p, seeds)
		}
	}
}

// TestRunDeterministic replays the same scenario twice and demands
// field-identical results — the bit-for-bit contract tapcheck's
// seed-replay reporting rests on.
func TestRunDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		sc := Gen(seed, ProfileFull)
		a := Run(sc, Mutations{})
		b := Run(sc, Mutations{})
		if a.Err != nil || b.Err != nil {
			t.Fatalf("seed %d: %v / %v", seed, a.Err, b.Err)
		}
		if !reflect.DeepEqual(a.Violation, b.Violation) ||
			a.Delivered != b.Delivered || a.Failed != b.Failed ||
			a.Skipped != b.Skipped || a.Steps != b.Steps {
			t.Fatalf("seed %d: replay diverged:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestGenDeterministicAndDiverse: same seed, same scenario; the seed
// range must cover both loss-free and lossy worlds (the liveness
// invariant is only decidable loss-free, so both sides need coverage).
func TestGenDeterministicAndDiverse(t *testing.T) {
	lossFree, lossy := 0, 0
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := Gen(seed, ProfileFull), Gen(seed, ProfileFull)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Gen not deterministic", seed)
		}
		if len(a.Events) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		if a.Loss == 0 {
			lossFree++
		} else {
			lossy++
		}
	}
	if lossFree == 0 || lossy == 0 {
		t.Fatalf("seeds 1..20 not diverse: %d loss-free, %d lossy", lossFree, lossy)
	}
}

// TestScenarioJSONRoundTrip: dump/reload must be lossless, so a trace
// file replays the exact scenario that violated.
func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := Gen(7, ProfileFull)
	blob, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeScenario(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", sc, got)
	}
}

// TestViolationStringNamesWhere pins the line tapcheck prints on a
// failure: the checker, the schedule event (or quiescence for a
// violation found after the schedule drained), the simulated time and
// the message.
func TestViolationStringNamesWhere(t *testing.T) {
	cases := []struct {
		v    Violation
		want string
	}{
		{Violation{Checker: "exactly-once", Event: 3, At: 1500 * time.Millisecond, Msg: "dup"},
			"[exactly-once] at event 3 (t=1.5s): dup"},
		{Violation{Checker: "pool-reconverge", Event: -1, At: 2 * time.Second, Msg: "stuck"},
			"[pool-reconverge] at quiescence (t=2s): stuck"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestTraceJSONDeterministic: equal violations must produce byte-equal
// trace files (no timestamps, fixed field order).
func TestTraceJSONDeterministic(t *testing.T) {
	sc := Gen(3, ProfileMembership)
	a := NewTrace(Shrink(sc, Mutations{CorruptLeaf: true}, 100))
	b := NewTrace(Shrink(sc, Mutations{CorruptLeaf: true}, 100))
	if a.Violation == nil || b.Violation == nil {
		t.Skip("seed 3 does not trip the leaf plant; mutation tests cover firing")
	}
	ab, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("trace bytes differ between identical shrinks")
	}
	back, err := DecodeTrace(ab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Scenario, a.Scenario) {
		t.Fatalf("trace scenario round trip mismatch")
	}
}

// TestCheckerRegistryComplete pins the invariant catalogue: every
// documented checker is registered exactly once.
func TestCheckerRegistryComplete(t *testing.T) {
	want := []string{"tha-replication", "leafset", "no-plaintext", "tunnel-liveness",
		"exactly-once", "rebuild-rate", "pool-reconverge",
		"stream-in-order-delivery", "window-conservation"}
	got := Checkers()
	if len(got) != len(want) {
		t.Fatalf("registry has %d checkers, want %d", len(got), len(want))
	}
	for i, c := range got {
		if c.Name != want[i] {
			t.Fatalf("checker[%d] = %s, want %s", i, c.Name, want[i])
		}
		if c.Doc == "" {
			t.Fatalf("checker %s has no doc", c.Name)
		}
	}
}
