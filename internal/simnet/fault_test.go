package simnet

import (
	"testing"
	"time"
)

// faultNet builds a 4-address network with counting handlers.
func faultNet(t *testing.T, plan *FaultPlan) (*Kernel, *Network, []int) {
	t.Helper()
	k := NewKernel()
	net := NewNetwork(k, DefaultLinkModel(7), 4)
	got := make([]int, 4)
	for a := 0; a < 4; a++ {
		a := a
		net.Attach(Addr(a), HandlerFunc(func(Addr, Message) { got[a]++ }))
	}
	net.InstallFaults(plan)
	return k, net, got
}

func TestFaultTotalLossDeliversNothing(t *testing.T) {
	k, net, got := faultNet(t, &FaultPlan{Seed: 1, LossRate: 1})
	for i := 0; i < 20; i++ {
		net.Send(0, 1, testMsg{size: 100})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[1] != 0 {
		t.Fatalf("delivered %d messages through a fully lossy link", got[1])
	}
	if net.Stats.MessagesLost != 20 {
		t.Fatalf("MessagesLost = %d, want 20", net.Stats.MessagesLost)
	}
}

func TestFaultLossIsSeedDeterministic(t *testing.T) {
	run := func() (uint64, uint64) {
		k, net, _ := faultNet(t, &FaultPlan{Seed: 42, LossRate: 0.3})
		for i := 0; i < 200; i++ {
			net.Send(0, 1, testMsg{size: 10})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return net.Stats.MessagesDelivered, net.Stats.MessagesLost
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Fatalf("fault schedule not deterministic: (%d,%d) vs (%d,%d)", d1, l1, d2, l2)
	}
	if l1 == 0 || d1 == 0 {
		t.Fatalf("30%% loss over 200 sends gave delivered=%d lost=%d", d1, l1)
	}
}

func TestFaultSelfDeliveryExemptFromLoss(t *testing.T) {
	k, net, got := faultNet(t, &FaultPlan{Seed: 1, LossRate: 1})
	net.Send(2, 2, testMsg{size: 10})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[2] != 1 {
		t.Fatalf("self delivery lost under link-loss plan")
	}
}

func TestFaultLatencySpikeDelays(t *testing.T) {
	const spike = 500 * time.Millisecond
	k, net, _ := faultNet(t, &FaultPlan{
		Seed: 1, SpikeRate: 1, SpikeMin: spike, SpikeMax: spike,
	})
	var arrived Time
	net.Detach(1)
	net.Attach(1, HandlerFunc(func(Addr, Message) { arrived = k.Now() }))
	net.Send(0, 1, testMsg{size: 100})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := net.Link.HopDelay(0, 1, 100) + spike
	if arrived != want {
		t.Fatalf("arrival %v, want %v (spiked)", arrived, want)
	}
	if net.Stats.LatencySpikes != 1 {
		t.Fatalf("LatencySpikes = %d", net.Stats.LatencySpikes)
	}
}

func TestFaultCrashWindow(t *testing.T) {
	var crashed []Addr
	plan := &FaultPlan{
		Seed:    1,
		Crashes: []CrashWindow{{Addr: 1, At: 100 * time.Millisecond, Restart: 2 * time.Second}},
		OnCrash: func(a Addr) { crashed = append(crashed, a) },
	}
	k, net, got := faultNet(t, plan)

	// Before the window: delivered. During: dropped on arrival, and the
	// downed node's own sends are lost. After restart: delivered again.
	net.Send(0, 1, testMsg{size: 10}) // arrives ~t<100ms? link 0-1 latency may exceed; schedule explicitly
	k.At(150*time.Millisecond, func() {
		if !net.Down(1) || net.Reachable(1) {
			t.Errorf("node 1 should be down inside its window")
		}
		net.Send(0, 1, testMsg{size: 10}) // dropped at arrival
		net.Send(1, 2, testMsg{size: 10}) // crashed sender: lost
	})
	k.At(3*time.Second, func() {
		if net.Down(1) || !net.Reachable(1) {
			t.Errorf("node 1 should be reachable after restart")
		}
		net.Send(0, 1, testMsg{size: 10})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[2] != 0 {
		t.Fatalf("message from crashed sender delivered")
	}
	if net.Stats.MessagesLost != 1 {
		t.Fatalf("MessagesLost = %d, want 1", net.Stats.MessagesLost)
	}
	if len(crashed) != 1 || crashed[0] != 1 {
		t.Fatalf("OnCrash calls = %v, want [1]", crashed)
	}
	// Exactly the first (pre-window, if it arrived before 100ms it counts)
	// plus the post-restart send can arrive; the mid-window one cannot.
	if net.Stats.MessagesDropped < 1 {
		t.Fatalf("mid-window send was not dropped (dropped=%d)", net.Stats.MessagesDropped)
	}
	if got[1] < 1 {
		t.Fatalf("post-restart send not delivered (got=%d)", got[1])
	}
}

// TestFaultCrashWindowEdges walks every crash and restart edge of a plan
// with several windows: OnCrash runs once per window opening, in time
// order, and a window whose Restart is not after At never closes.
func TestFaultCrashWindowEdges(t *testing.T) {
	var crashed []Addr
	plan := &FaultPlan{
		Seed: 1,
		Crashes: []CrashWindow{
			{Addr: 3, At: 300 * time.Millisecond, Restart: 250 * time.Millisecond},
			{Addr: 2, At: 50 * time.Millisecond},
			{Addr: 3, At: 100 * time.Millisecond, Restart: 200 * time.Millisecond},
		},
		OnCrash: func(a Addr) { crashed = append(crashed, a) },
	}
	k, net, _ := faultNet(t, plan)
	want := []struct {
		at           Time
		down2, down3 bool
	}{
		{10 * time.Millisecond, false, false},
		{150 * time.Millisecond, true, true},
		{250 * time.Millisecond, true, false},
		{10 * time.Second, true, true},
	}
	for _, w := range want {
		w := w
		k.At(w.at, func() {
			if net.Down(2) != w.down2 || net.Down(3) != w.down3 {
				t.Errorf("t=%v: Down(2)=%v Down(3)=%v, want %v %v",
					w.at, net.Down(2), net.Down(3), w.down2, w.down3)
			}
			if net.Reachable(3) == w.down3 {
				t.Errorf("t=%v: Reachable(3)=%v while Down(3)=%v", w.at, net.Reachable(3), w.down3)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(crashed) != 3 || crashed[0] != 2 || crashed[1] != 3 || crashed[2] != 3 {
		t.Fatalf("OnCrash calls = %v, want [2 3 3]", crashed)
	}
}

func TestDetachClearsUplinkHorizon(t *testing.T) {
	k := NewKernel()
	net := NewNetwork(k, DefaultLinkModel(9), 3)
	net.UplinkContention = true
	net.Attach(0, HandlerFunc(func(Addr, Message) {}))
	arrivals := make(map[int]Time)
	net.Attach(1, HandlerFunc(func(_ Addr, m Message) {
		arrivals[m.SizeBytes()] = k.Now()
	}))

	// A huge transfer books node 0's uplink far into the future, then the
	// node crashes and restarts: the fresh incarnation must not inherit
	// the stale uplink-busy horizon.
	net.Send(0, 1, testMsg{size: 10_000_000}) // ~53 s of serialization
	net.Detach(0)
	net.Attach(0, HandlerFunc(func(Addr, Message) {}))
	net.Send(0, 1, testMsg{size: 100})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	small := arrivals[100]
	fresh := net.Link.HopDelay(0, 1, 100)
	if small != fresh {
		t.Fatalf("restarted node's send arrived at %v, want %v (stale uplink horizon?)", small, fresh)
	}
}
