package core

import (
	"strings"
	"testing"
	"time"

	"tap/internal/id"
	"tap/internal/simnet"
)

func TestNetFinishIgnoresDuplicateLatePackets(t *testing.T) {
	// Regression: a flow whose callback already fired could keep bumping
	// FailFlows on duplicate/late packet deaths.
	ns := newNetSys(t, 100, 3, 21)
	fired := 0
	p := &packet{flow: ns.openFlow(func(Outcome) { fired++ }, false)}
	ns.eng.finish(0, p, false, "first death")
	ns.eng.finish(0, p, false, "late duplicate")
	ns.eng.finish(0, p, true, "")
	if fired != 1 {
		t.Fatalf("callback fired %d times", fired)
	}
	if ns.eng.FailFlows != 1 {
		t.Fatalf("FailFlows = %d, want 1", ns.eng.FailFlows)
	}
}

func TestNetReliableOvertUnderLoss(t *testing.T) {
	ns := newNetSys(t, 200, 3, 22)
	ns.net.InstallFaults(&simnet.FaultPlan{Seed: 5, LossRate: 0.2})
	ns.eng.EnableReliability(Reliability{MaxAttempts: 12})
	from := ns.ov.RandomLive(ns.root.Split("src"))

	const flows = 10
	outs := make([]Outcome, flows)
	got := make([]bool, flows)
	for i := 0; i < flows; i++ {
		i := i
		var dest id.ID
		ns.root.Bytes(dest[:])
		ns.eng.SendOvert(from.Ref().Addr, dest, 20_000, func(o Outcome) { outs[i] = o; got[i] = true })
	}
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	retried := false
	for i := range outs {
		if !got[i] {
			t.Fatalf("flow %d vanished without an outcome", i)
		}
		if !outs[i].Delivered {
			t.Fatalf("flow %d failed under 20%% loss with retransmission: %+v", i, outs[i])
		}
		if outs[i].Attempts > 1 {
			retried = true
			if outs[i].Backoff <= 0 {
				t.Fatalf("flow %d retried but reports no backoff: %+v", i, outs[i])
			}
		}
	}
	if !retried {
		t.Fatalf("20%% loss over %d flows produced no retransmissions (Retransmits=%d)", flows, ns.eng.Retransmits)
	}
	if ns.eng.AcksRecv == 0 || ns.eng.AcksSent < ns.eng.AcksRecv {
		t.Fatalf("ack accounting: sent=%d recv=%d", ns.eng.AcksSent, ns.eng.AcksRecv)
	}
}

func TestNetReliableCrashFailoverInvalidatesHint(t *testing.T) {
	// The §5 optimized first hop is hinted straight at its current hop
	// node; that node crashes while the first copy is on the wire. The
	// retransmission must observe the dead hint, invalidate it, and
	// re-resolve the hop through the DHT — landing on the THA replica
	// that took the anchor over.
	ns := newNetSys(t, 300, 3, 23)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	victim := tun.Hint(0)
	origin := in.Node().Ref().Addr
	if victim == origin {
		t.Skip("first hop held by the initiator itself at this seed")
	}
	ns.net.InstallFaults(&simnet.FaultPlan{
		Seed:    1,
		Crashes: []simnet.CrashWindow{{Addr: victim, At: time.Millisecond}},
		OnCrash: func(a simnet.Addr) {
			// The overlay notices the crash: THA replicas migrate, so the
			// hop anchor fails over to its replica holder.
			_ = ns.ov.Fail(a)
		},
	})
	ns.eng.EnableReliability(Reliability{})
	env, err := BuildForwardHinted(tun, id.HashString("d"), make([]byte, 1000), ns.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	var out Outcome
	gotOut := false
	ns.eng.SendForward(origin, env, func(o Outcome) { out = o; gotOut = true })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotOut || !out.Delivered {
		t.Fatalf("flow did not survive first-hop crash: %+v", out)
	}
	if out.Attempts < 2 {
		t.Fatalf("first copy was headed into the crash window but Attempts=%d", out.Attempts)
	}
	if ns.eng.StaleHints == 0 {
		t.Fatalf("crashed hint was never invalidated")
	}
	if ns.eng.hintStale(tun.Hops[0].HopID, victim) {
		// expected: the (hop, victim) pair is the stale entry
	} else {
		t.Fatalf("stale set does not contain the crashed first-hop hint")
	}
}

func TestNetReliableFailsCleanlyWhenTunnelDead(t *testing.T) {
	ns := newNetSys(t, 300, 3, 24)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	origin := in.Node().Ref().Addr
	ns.mgr.BeginBatch()
	for _, addr := range ns.dir.ReplicaAddrs(tun.Hops[1].HopID) {
		if addr == origin {
			continue
		}
		if err := ns.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
		ns.net.Detach(addr)
	}
	ns.mgr.EndBatch()
	if ns.dir.Available(tun.Hops[1].HopID) {
		t.Skip("initiator holds a replica of its own hop anchor at this seed")
	}
	ns.eng.EnableReliability(Reliability{MaxAttempts: 3})
	env, err := BuildForward(tun, nil, id.HashString("d"), make([]byte, 100), ns.root.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	var out Outcome
	gotOut := false
	ns.eng.SendForward(origin, env, func(o Outcome) { out = o; gotOut = true })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotOut {
		t.Fatalf("no outcome for doomed flow")
	}
	if out.Delivered {
		t.Fatalf("flow delivered through a dead anchor")
	}
	if out.Attempts != 3 {
		t.Fatalf("Attempts = %d, want the full budget of 3", out.Attempts)
	}
	if !strings.Contains(out.FailedAt, "retransmit budget exhausted") {
		t.Fatalf("FailedAt = %q", out.FailedAt)
	}
	if ns.eng.FailFlows != 1 {
		t.Fatalf("FailFlows = %d, want exactly 1", ns.eng.FailFlows)
	}
}

// TestNetReliableChurnProperty is the in-flight churn property: with
// retransmission enabled, a forward flow completes if and only if every
// hop anchor retains a live replica once the dust settles — hop-node
// crashes mid-flight are survived via THA failover, and a truly dead
// tunnel fails cleanly within the attempt budget.
func TestNetReliableChurnProperty(t *testing.T) {
	survived, died := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		killAll := seed%2 == 0
		ns := newNetSys(t, 250, 3, 900+seed)
		ns.eng.EnableReliability(Reliability{MaxAttempts: 6})
		in := ns.readyInitiator(t, "a", 12)
		tun, err := in.FormTunnel(4)
		if err != nil {
			t.Fatal(err)
		}
		origin := in.Node().Ref().Addr
		var dest id.ID
		ns.root.Bytes(dest[:])
		env, err := BuildForward(tun, nil, dest, make([]byte, 1000), ns.root.Split("b"))
		if err != nil {
			t.Fatal(err)
		}

		// Churn hits the tunnel: either every replica of one hop anchor
		// dies at once (strictly before the first copy can reach any hop
		// — min latency 1 ms plus serialization — so the outcome is
		// unambiguous), or just the current holders of two hops die
		// mid-flight (their replicas take over). In the latter case the
		// first copy may be on the wire toward a dying node; depending on
		// the seed it is rerouted or lost and retransmitted.
		churnAt := simnet.Time(time.Millisecond)
		if !killAll {
			churnAt = 300 * time.Millisecond
		}
		ns.kernel.Schedule(churnAt, func() {
			if killAll {
				ns.mgr.BeginBatch()
				for _, addr := range ns.dir.ReplicaAddrs(tun.Hops[2].HopID) {
					if addr == origin {
						continue
					}
					if err := ns.ov.Fail(addr); err == nil {
						ns.net.Detach(addr)
					}
				}
				ns.mgr.EndBatch()
				return
			}
			for _, hi := range []int{1, 2} {
				node, ok := ns.dir.HopNode(tun.Hops[hi].HopID)
				if !ok {
					continue
				}
				addr := node.Ref().Addr
				if addr == origin {
					continue
				}
				if err := ns.ov.Fail(addr); err == nil {
					ns.net.Detach(addr)
				}
			}
		})

		var out Outcome
		gotOut := false
		ns.eng.SendForward(origin, env, func(o Outcome) { out = o; gotOut = true })
		if err := ns.kernel.Run(); err != nil {
			t.Fatal(err)
		}
		if !gotOut {
			t.Fatalf("seed %d: flow vanished without an outcome", seed)
		}
		functional := true
		for _, h := range tun.Hops {
			if !ns.dir.Available(h.HopID) {
				functional = false
			}
		}
		if functional && !out.Delivered {
			t.Fatalf("seed %d: every hop anchor has a live replica but the flow failed: %+v", seed, out)
		}
		if !functional && out.Delivered {
			t.Fatalf("seed %d: flow delivered through a tunnel with a lost anchor", seed)
		}
		if out.Delivered {
			survived++
		} else {
			died++
		}
		t.Logf("seed %d: functional=%v delivered=%v attempts=%d", seed, functional, out.Delivered, out.Attempts)
	}
	// The seeds must cover both sides of the property, or it proves nothing.
	if survived == 0 || died == 0 {
		t.Fatalf("property not exercised on both sides: survived=%d died=%d", survived, died)
	}
}

func TestNetReliableDeterministicUnderFaults(t *testing.T) {
	run := func() (simnet.Time, int) {
		ns := newNetSys(t, 200, 3, 26)
		ns.net.InstallFaults(&simnet.FaultPlan{Seed: 9, LossRate: 0.15, SpikeRate: 0.1,
			SpikeMin: 100 * time.Millisecond, SpikeMax: 400 * time.Millisecond})
		ns.eng.EnableReliability(Reliability{MaxAttempts: 12})
		in := ns.readyInitiator(t, "a", 10)
		tun, err := in.FormTunnel(3)
		if err != nil {
			t.Fatal(err)
		}
		env, err := BuildForward(tun, nil, id.HashString("d"), make([]byte, 10_000), ns.root.Split("b"))
		if err != nil {
			t.Fatal(err)
		}
		var out Outcome
		ns.eng.SendForward(in.Node().Ref().Addr, env, func(o Outcome) { out = o })
		if err := ns.kernel.Run(); err != nil {
			t.Fatal(err)
		}
		if !out.Delivered {
			t.Fatalf("flow failed: %+v", out)
		}
		return out.At, out.Attempts
	}
	at1, att1 := run()
	at2, att2 := run()
	if at1 != at2 || att1 != att2 {
		t.Fatalf("reliable delivery not deterministic: (%v,%d) vs (%v,%d)", at1, att1, at2, att2)
	}
}
