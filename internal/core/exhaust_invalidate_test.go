package core

import (
	"testing"

	"tap/internal/id"
	"tap/internal/simnet"
)

// TestExhaustInvalidatesTunnelHints is the satellite-1 regression: when a
// reliable flow burns its whole attempt budget, the initiator has
// concluded the tunnel is dead — so the tunnel's hint for every hop it
// rode must be dropped (and remembered as stale), not just the ones a
// direct send happened to miss. Before the fix, only in-flight hint misses
// invalidated, so a dead hop's remembered address kept poisoning later flows.
func TestExhaustInvalidatesTunnelHints(t *testing.T) {
	ns := newNetSys(t, 300, 3, 31)
	ns.eng.EnableReliability(Reliability{MaxAttempts: 3})
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	// Kill every replica of the middle hop in one batch so the anchor is
	// unrecoverable: each retransmission dies there and the flow exhausts.
	ns.mgr.BeginBatch()
	for _, addr := range ns.dir.ReplicaAddrs(tun.Hops[1].HopID) {
		if err := ns.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
		ns.net.Detach(addr)
	}
	ns.mgr.EndBatch()

	env, err := BuildForwardHinted(tun, id.HashString("d"), make([]byte, 500), ns.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	var out Outcome
	gotOut := false
	ns.eng.SendForwardOpt(in.Node().Ref().Addr, env, SendOpts{Tunnel: tun},
		func(o Outcome) { out = o; gotOut = true })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotOut || out.Delivered {
		t.Fatalf("flow should have exhausted: %+v", out)
	}
	if out.Attempts != 3 {
		t.Fatalf("attempts = %d, want the full budget of 3", out.Attempts)
	}
	for i := range tun.Hops {
		if tun.Hint(i) != simnet.NoAddr {
			t.Fatalf("hop %d hint still remembered after exhaustion", i)
		}
	}
	if ns.eng.StaleHints == 0 {
		t.Fatal("no stale hints recorded at exhaustion")
	}
}

// TestSendOptsMaxAttemptsOverride: a probe-style flow with a small per-flow
// budget must give up after that budget, not the engine-wide default.
func TestSendOptsMaxAttemptsOverride(t *testing.T) {
	ns := newNetSys(t, 300, 3, 32)
	ns.eng.EnableReliability(Reliability{MaxAttempts: 12})
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	ns.mgr.BeginBatch()
	for _, addr := range ns.dir.ReplicaAddrs(tun.Hops[0].HopID) {
		if err := ns.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
		ns.net.Detach(addr)
	}
	ns.mgr.EndBatch()
	env, err := BuildForward(tun, nil, id.HashString("d"), make([]byte, 100), ns.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	var out Outcome
	ns.eng.SendForwardOpt(in.Node().Ref().Addr, env, SendOpts{MaxAttempts: 2},
		func(o Outcome) { out = o })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Delivered || out.Attempts != 2 {
		t.Fatalf("per-flow budget not honored: %+v", out)
	}
}
