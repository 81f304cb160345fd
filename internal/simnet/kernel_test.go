package simnet

import (
	"sort"
	"testing"
	"time"

	"tap/internal/rng"
)

// TestKernelMatchesReferenceOrder drives the calendar queue with random
// workloads spanning the ring window and the far-future heap, and checks
// the execution order against the specification: strictly (at, seq).
func TestKernelMatchesReferenceOrder(t *testing.T) {
	type rec struct {
		at  Time
		seq int
	}
	for _, span := range []Time{
		100 * time.Microsecond, // everything lands in one or two buckets
		50 * time.Millisecond,  // spread across the ring
		5 * time.Second,        // most events start in the far heap
		2 * time.Minute,        // deep far-future, forces window jumps
	} {
		s := rng.New(uint64(span))
		k := NewKernel()
		var got []rec
		var want []rec
		seq := 0
		var schedule func(at Time)
		schedule = func(at Time) {
			mySeq := seq
			seq++
			want = append(want, rec{at, mySeq})
			k.At(at, func() {
				got = append(got, rec{at, mySeq})
				// A third of events cascade: schedule follow-ups relative
				// to now, mixing zero delays with short and far ones.
				if mySeq%3 == 0 && seq < 3000 {
					schedule(k.Now())
					schedule(k.Now() + Time(s.Intn(int(span)+1)))
				}
			})
		}
		for i := 0; i < 1000; i++ {
			schedule(Time(s.Intn(int(span) + 1)))
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("span %v: executed %d events, scheduled %d", span, len(got), len(want))
		}
		// The reference order sorts by (at, schedule sequence). The
		// recorded seq is assigned in k.At call order, which is exactly
		// the kernel's tie-break sequence.
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("span %v: event %d = %+v, reference %+v", span, i, got[i], want[i])
			}
		}
		if k.Pending() != 0 {
			t.Fatalf("span %v: %d events still pending after drain", span, k.Pending())
		}
	}
}

// TestKernelInterleavedRunUntil checks that window bookkeeping survives
// RunUntil advancing the clock past the base tick without popping, then
// scheduling near events again.
func TestKernelInterleavedRunUntil(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(3*time.Second, func() { order = append(order, 99) })
	if err := k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(order) != 0 || k.Now() != 2*time.Second {
		t.Fatalf("order=%v now=%v", order, k.Now())
	}
	// now is far ahead of the (stale) window base; these land correctly.
	k.Schedule(time.Millisecond, func() { order = append(order, 1) })
	k.Schedule(2*time.Second, func() { order = append(order, 2) })
	k.Schedule(0, func() { order = append(order, 0) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 99 || order[3] != 2 {
		t.Fatalf("order = %v", order)
	}
}

// firings is an event with state of its own, as a send window is.
type firings int

func (f *firings) Fire() { *f++ }

// TestKernelScheduleSteadyStateZeroAlloc: once the slot arena and bucket
// heaps are warm, a schedule+run cycle performs no heap allocations, for a
// func() and for an Event alike: the slot holds either in its interface
// word.
func TestKernelScheduleSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel()
	net := NewNetwork(k, DefaultLinkModel(1), 1)
	fn := func() {}
	ev := new(firings)
	delays := make([]Time, 256)
	s := rng.New(9)
	for i := range delays {
		// Mix sub-window and far-future delays so both paths stay warm.
		delays[i] = Time(s.Intn(int(4 * time.Second)))
	}
	cycle := func() {
		for _, d := range delays {
			k.Schedule(d, fn)
			net.Schedule(d, ev)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the arena, freelist, and heap capacities. The clock advances
	// every cycle, so events rotate through the bucket ring; enough cycles
	// touch every bucket position once, after which all capacity is warm.
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("steady-state schedule+run cycle allocates %.1f times per cycle, want 0", allocs)
	}
	if want := firings(115 * len(delays)); *ev != want {
		t.Fatalf("the event fired %d times, want %d", *ev, want)
	}
}

// TestKernelSlotRecycling checks the freelist actually bounds the arena:
// repeated schedule/run cycles must not grow the slot arena beyond the
// peak concurrent population.
func TestKernelSlotRecycling(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < 100; i++ {
			k.Schedule(Time(i)*time.Millisecond, fn)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if len(k.ev) > 100 {
		t.Fatalf("slot arena grew to %d for a peak population of 100", len(k.ev))
	}
}
