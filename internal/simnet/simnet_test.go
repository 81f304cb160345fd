package simnet

import (
	"slices"
	"testing"
	"time"

	"tap/internal/transport"
)

func TestKernelOrdersByTime(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	k.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	k.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v", order)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v", k.Now())
	}
}

func TestKernelFIFOAtSameInstant(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*time.Millisecond, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Schedule(time.Millisecond, func() {
		k.Schedule(2*time.Millisecond, func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3*time.Millisecond {
		t.Fatalf("nested event ran at %v, want 3ms", at)
	}
}

func TestKernelZeroDelayPreservesCausalOrder(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Schedule(0, func() {
		order = append(order, "a")
		k.Schedule(0, func() { order = append(order, "c") })
	})
	k.Schedule(0, func() { order = append(order, "b") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestKernelPanicsOnPastScheduling(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic scheduling into the past")
			}
		}()
		k.At(5*time.Millisecond, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelMaxSteps(t *testing.T) {
	k := NewKernel()
	k.MaxSteps = 100
	var loop func()
	loop = func() { k.Schedule(time.Microsecond, loop) }
	k.Schedule(0, loop)
	if err := k.Run(); err == nil {
		t.Fatalf("expected MaxSteps error")
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.Schedule(10*time.Millisecond, func() { ran++ })
	k.Schedule(30*time.Millisecond, func() { ran++ })
	if err := k.RunUntil(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran %d events before deadline, want 1", ran)
	}
	if k.Now() != 20*time.Millisecond {
		t.Fatalf("clock should advance to the deadline, got %v", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("resume did not run remaining event")
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.Schedule(time.Millisecond, func() { ran++; k.Stop() })
	k.Schedule(2*time.Millisecond, func() { ran++ })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("Stop did not halt the loop")
	}
}

type testMsg struct{ size int }

func (m testMsg) SizeBytes() int { return m.size }

func TestLinkModelLatencyBoundsAndSymmetry(t *testing.T) {
	m := DefaultLinkModel(42)
	for a := Addr(0); a < 50; a++ {
		for b := a + 1; b < 50; b++ {
			l := m.Latency(a, b)
			if l < time.Millisecond || l > 230*time.Millisecond {
				t.Fatalf("latency(%d,%d) = %v out of bounds", a, b, l)
			}
			if l != m.Latency(b, a) {
				t.Fatalf("latency not symmetric for (%d,%d)", a, b)
			}
		}
	}
	if m.Latency(3, 3) != 0 {
		t.Fatalf("self latency should be zero")
	}
}

func TestLinkModelSerialization(t *testing.T) {
	m := DefaultLinkModel(1)
	// 2 Mb = 250,000 bytes at 1.5 Mb/s should take 2/1.5 s = 1.333... s.
	got := m.Serialization(250000)
	want := time.Duration(int64(2_000_000) * int64(time.Second) / 1_500_000)
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Millisecond {
		t.Fatalf("serialization of 2Mb = %v, want ~%v", got, want)
	}
	if m.Serialization(0) != 0 {
		t.Fatalf("zero size should serialize instantly")
	}
	off := m
	off.BandwidthBitsPerSec = 0
	if off.Serialization(1000) != 0 {
		t.Fatalf("disabled bandwidth should mean zero serialization")
	}
}

func TestNetworkDelivery(t *testing.T) {
	k := NewKernel()
	net := NewNetwork(k, DefaultLinkModel(7), 4)
	var got Message
	var from Addr
	var at Time
	net.Attach(1, HandlerFunc(func(f Addr, m Message) {
		got, from, at = m, f, k.Now()
	}))
	net.Attach(0, HandlerFunc(func(_ Addr, _ Message) {}))
	msg := testMsg{size: 1000}
	net.Send(0, 1, msg)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != msg || from != 0 {
		t.Fatalf("delivery mismatch: %v from %d", got, from)
	}
	want := net.Link.HopDelay(0, 1, 1000)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	if net.Stats.MessagesDelivered != 1 || net.Stats.MessagesSent != 1 {
		t.Fatalf("stats %+v", net.Stats)
	}
}

func TestNetworkDropsToDetached(t *testing.T) {
	k := NewKernel()
	net := NewNetwork(k, DefaultLinkModel(7), 4)
	net.Attach(0, HandlerFunc(func(_ Addr, _ Message) {}))
	dropped := 0
	net.DropHook = func(_, to Addr, _ Message) {
		if to != 2 {
			t.Errorf("dropped toward %d, want 2", to)
		}
		dropped++
	}
	net.Send(0, 2, testMsg{size: 10})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dropped != 1 || net.Stats.MessagesDropped != 1 {
		t.Fatalf("drop not recorded: hook=%d stats=%+v", dropped, net.Stats)
	}
}

func TestNetworkDetachMidFlight(t *testing.T) {
	k := NewKernel()
	net := NewNetwork(k, DefaultLinkModel(7), 4)
	net.Attach(0, HandlerFunc(func(_ Addr, _ Message) {}))
	delivered := false
	net.Attach(1, HandlerFunc(func(_ Addr, _ Message) { delivered = true }))
	net.Send(0, 1, testMsg{size: 10})
	// Detach before the message arrives.
	k.Schedule(0, func() { net.Detach(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatalf("message delivered to node that died before arrival")
	}
	if net.Stats.MessagesDropped != 1 {
		t.Fatalf("expected one drop, got %+v", net.Stats)
	}
}

func TestNetworkRelayChainTiming(t *testing.T) {
	// Three hops: total time must be the sum of per-hop store-and-forward
	// delays — the quantity Figure 6 measures.
	k := NewKernel()
	net := NewNetwork(k, DefaultLinkModel(9), 4)
	const size = 250000
	var done Time
	net.Attach(0, HandlerFunc(func(_ Addr, _ Message) {}))
	net.Attach(1, HandlerFunc(func(_ Addr, m Message) { net.Send(1, 2, m) }))
	net.Attach(2, HandlerFunc(func(_ Addr, m Message) { net.Send(2, 3, m) }))
	net.Attach(3, HandlerFunc(func(_ Addr, _ Message) { done = k.Now() }))
	net.Send(0, 1, testMsg{size: size})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := net.Link.HopDelay(0, 1, size) + net.Link.HopDelay(1, 2, size) + net.Link.HopDelay(2, 3, size)
	if done != want {
		t.Fatalf("chain delivered at %v, want %v", done, want)
	}
}

func TestNetworkGrowAndReattach(t *testing.T) {
	k := NewKernel()
	net := NewNetwork(k, DefaultLinkModel(7), 1)
	net.Grow(3)
	if net.Attached(2) {
		t.Fatalf("grown address should start detached")
	}
	net.Attach(2, HandlerFunc(func(_ Addr, _ Message) {}))
	if !net.Attached(2) {
		t.Fatalf("attach after grow failed")
	}
	net.Detach(2)
	// Re-attaching a detached address models a rejoining node.
	net.Attach(2, HandlerFunc(func(_ Addr, _ Message) {}))
	if !net.Attached(2) {
		t.Fatalf("re-attach failed")
	}
}

func TestNetworkAttachTwicePanics(t *testing.T) {
	k := NewKernel()
	net := NewNetwork(k, DefaultLinkModel(7), 2)
	net.Attach(0, HandlerFunc(func(_ Addr, _ Message) {}))
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on double attach")
		}
	}()
	net.Attach(0, HandlerFunc(func(_ Addr, _ Message) {}))
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (Time, Stats) {
		k := NewKernel()
		net := NewNetwork(k, DefaultLinkModel(99), 10)
		var last Time
		for a := Addr(0); a < 10; a++ {
			a := a
			net.Attach(a, HandlerFunc(func(_ Addr, m Message) {
				last = k.Now()
				if a+1 < 10 {
					net.Send(a, a+1, m)
				}
			}))
		}
		net.Send(0, 1, testMsg{size: 5000})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return last, net.Stats
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("replay diverged: %v/%+v vs %v/%+v", t1, s1, t2, s2)
	}
}

// TestKernelStepsCountsExecutedEvents: Steps counts events that have run,
// including ones an event scheduled, and not ones still queued; a
// network's clock is its kernel's, and a timer armed through the network
// runs on the kernel's queue.
func TestKernelStepsCountsExecutedEvents(t *testing.T) {
	k := NewKernel()
	net := NewNetwork(k, DefaultLinkModel(1), 2)
	var at []Time
	k.Schedule(10*time.Millisecond, func() {
		at = append(at, net.Now())
		net.Schedule(15*time.Millisecond, transport.Func(func() { at = append(at, net.Now()) }))
	})
	k.Schedule(20*time.Millisecond, func() { at = append(at, net.Now()) })
	k.Schedule(30*time.Millisecond, func() { at = append(at, net.Now()) })
	if k.Steps() != 0 {
		t.Fatalf("Steps = %d before running, want 0", k.Steps())
	}
	if err := k.RunUntil(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Steps() != 2 || k.Pending() != 2 || net.Now() != 20*time.Millisecond {
		t.Fatalf("after RunUntil(20ms): Steps %d, Pending %d, Now %v; want 2, 2, 20ms", k.Steps(), k.Pending(), net.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond, 30 * time.Millisecond}
	if k.Steps() != 4 || k.Pending() != 0 || !slices.Equal(at, want) {
		t.Fatalf("after Run: Steps %d, Pending %d, fired at %v; want 4, 0, %v", k.Steps(), k.Pending(), at, want)
	}
}
