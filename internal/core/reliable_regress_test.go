package core

import (
	"strings"
	"testing"

	"tap/internal/id"
	"tap/internal/simnet"
)

// Regression tests for the reliability protocol's edge cases: hint
// invalidation on a direct-send miss, terminal-side ACK dedup in both
// arrival orders, and finish()'s double-count protection for reliable
// flows.

// TestDropHintDropsOnlyTarget: dropHint forgets exactly the missed hop's
// address; the rest of the tunnel keeps serving hints, and a tunnel never
// refreshed is safe to drop from.
func TestDropHintDropsOnlyTarget(t *testing.T) {
	ns := newNetSys(t, 150, 3, 31)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	tun.dropHint(1) // nothing remembered yet: a no-op
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	for i, h := range tun.Hops {
		if tun.Hint(i) == simnet.NoAddr {
			t.Fatalf("hop %s not hinted after RefreshHints", h.HopID.Short())
		}
	}
	tun.dropHint(1)
	tun.dropHint(1) // repeated: a no-op
	if got := tun.Hint(1); got != simnet.NoAddr {
		t.Fatalf("dropped hop still hinted at %d", got)
	}
	for _, i := range []int{0, 2} {
		if tun.Hint(i) == simnet.NoAddr {
			t.Fatalf("dropHint(1) also dropped hop %d", i)
		}
	}
}

// TestDirectSendMissMarksStaleHint: a hinted packet landing on a node
// that no longer holds the hop anchor must count a miss, record the
// (target, address) pair as stale, and make later dispatches skip the
// dead-end hint without a connection attempt.
func TestDirectSendMissMarksStaleHint(t *testing.T) {
	ns := newNetSys(t, 150, 3, 32)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	hop := tun.Hops[0].HopID
	// A live node that does not hold hop's anchor: the stale hint target.
	wrong := ns.ov.RandomLive(ns.root.Split("wrong"))
	for ns.mgr.HolderHas(wrong.Ref().Addr, hop) {
		wrong = ns.ov.RandomLive(ns.root.Split("wrong"))
	}
	env, err := BuildForward(tun, nil, id.HashString("dest"), []byte("payload"), ns.root.Split("build"))
	if err != nil {
		t.Fatal(err)
	}
	p := &packet{kind: kindForward, flow: ns.openFlow(nil, false), target: hop, env: env, direct: true}
	ns.eng.deliver(wrong.Ref().Addr, p)
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if ns.eng.HintMiss == 0 {
		t.Fatalf("direct-send miss not counted (HintMiss=0)")
	}
	if ns.eng.StaleHints != 1 {
		t.Fatalf("StaleHints = %d, want 1", ns.eng.StaleHints)
	}
	if !ns.eng.hintStale(hop, wrong.Ref().Addr) {
		t.Fatal("missed (target, addr) pair not in the stale set")
	}
	// A later dispatch with the same hint skips the direct attempt: no
	// p.direct packet is sent at the stale address again.
	misses := ns.eng.HintMiss
	p2 := &packet{kind: kindForward, flow: ns.openFlow(nil, false), target: hop, env: env}
	ns.eng.dispatch(wrong.Ref().Addr, p2, wrong.Ref().Addr)
	if p2.direct {
		t.Fatal("dispatch retried a hint already known stale")
	}
	if ns.eng.HintMiss != misses+1 {
		t.Fatalf("skipped stale hint not counted as a miss: %d -> %d", misses, ns.eng.HintMiss)
	}
}

// TestTerminalAckDedupBothOrders: when the original and a retransmitted
// copy of a reliable flow both reach the terminal, whichever arrives
// first is delivered and recorded; the second is suppressed as a
// duplicate but still re-ACKed (the first ACK may have been lost). Both
// arrival orders must behave identically.
func TestTerminalAckDedupBothOrders(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		firstHops, laterHops int
	}{
		{"original-first", 4, 9},   // original (fewer hops) lands first
		{"retransmit-first", 9, 4}, // retransmitted copy overtakes
	} {
		t.Run(tc.name, func(t *testing.T) {
			ns := newNetSys(t, 100, 3, 33)
			ns.eng.EnableReliability(Reliability{})
			var deliveries []bool // dup flags in observation order
			ns.eng.OnDeliver = func(flow uint64, dup bool) { deliveries = append(deliveries, dup) }

			fired := 0
			flow := ns.openFlow(func(Outcome) { fired++ }, true)
			origin := simnet.Addr(7)
			terminal := simnet.Addr(3)

			// Hand-built packets carry the flag attempt would have stamped.
			first := &packet{kind: kindPayload, flow: flow, hops: tc.firstHops, ackTo: origin, reliable: true}
			ns.eng.finish(terminal, first, true, "")
			if rec, ok := ns.eng.acked[flow]; !ok || rec.dataHops != tc.firstHops {
				t.Fatalf("first arrival not recorded: %+v ok=%v", ns.eng.acked[flow], ok)
			}
			// The flow completes at the initiator before the second copy
			// lands (ACK processed), so the terminal's dedup state is all
			// that suppresses the duplicate.
			ns.eng.handleAck(&packet{kind: kindAck, flow: flow, dataHops: tc.firstHops})
			if fired != 1 {
				t.Fatalf("outcome fired %d times after ACK", fired)
			}

			later := &packet{kind: kindPayload, flow: flow, hops: tc.laterHops, ackTo: origin, reliable: true}
			ns.eng.finish(terminal, later, true, "")
			if fired != 1 {
				t.Fatalf("duplicate arrival re-fired the outcome (%d times)", fired)
			}
			if ns.eng.DupDeliveries != 1 {
				t.Fatalf("DupDeliveries = %d, want 1", ns.eng.DupDeliveries)
			}
			if ns.eng.AcksSent != 2 {
				t.Fatalf("AcksSent = %d, want 2 (duplicate must be re-ACKed)", ns.eng.AcksSent)
			}
			if rec := ns.eng.acked[flow]; rec.dataHops != tc.firstHops {
				t.Fatalf("duplicate overwrote the first arrival's record: %+v", rec)
			}
			want := []bool{false, true} // one fresh delivery, one suppressed dup
			if len(deliveries) != 2 || deliveries[0] != want[0] || deliveries[1] != want[1] {
				t.Fatalf("OnDeliver saw %v, want %v", deliveries, want)
			}
		})
	}
}

// TestReliableFinishDoesNotDoubleCount: mid-flight deaths of a pending
// reliable flow count as PacketsLost — never FailFlows, which is reserved
// for the flow-level verdict — and packets of a flow that already
// concluded never re-count it: the origin ignores a late death and a late
// ACK alike. (The terminal does ACK a late delivery, once: it cannot know
// the origin gave up, and the origin's flow table is not its to read.)
func TestReliableFinishDoesNotDoubleCount(t *testing.T) {
	ns := newNetSys(t, 100, 3, 34)
	ns.eng.EnableReliability(Reliability{MaxAttempts: 3})
	fired := 0
	var out Outcome
	flow := ns.openFlow(func(o Outcome) { fired++; out = o }, true)
	st := ns.eng.flows[flow]

	// Two attempts die mid-flight: packet-level losses, no flow verdict.
	ns.eng.finish(1, &packet{kind: kindPayload, flow: flow, reliable: true}, false, "first copy died")
	ns.eng.finish(2, &packet{kind: kindPayload, flow: flow, reliable: true}, false, "second copy died")
	if ns.eng.PacketsLost != 2 {
		t.Fatalf("PacketsLost = %d, want 2", ns.eng.PacketsLost)
	}
	if ns.eng.FailFlows != 0 || fired != 0 {
		t.Fatalf("mid-flight deaths concluded the flow: FailFlows=%d fired=%d", ns.eng.FailFlows, fired)
	}
	if st.lastErr != "second copy died" {
		t.Fatalf("lastErr = %q", st.lastErr)
	}

	// The budget runs out: exactly one failure verdict, carrying the last
	// observed death.
	st.attempts = 3
	ns.eng.exhaust(flow, st)
	if fired != 1 || ns.eng.FailFlows != 1 {
		t.Fatalf("exhaust verdict: fired=%d FailFlows=%d", fired, ns.eng.FailFlows)
	}
	if out.Delivered || !strings.Contains(out.FailedAt, "second copy died") {
		t.Fatalf("outcome = %+v", out)
	}

	// Late copies of the concluded flow change nothing at the origin: the
	// death is not counted, and the ACK the terminal sends for the late
	// delivery finds no flow to complete.
	ns.eng.finish(3, &packet{kind: kindPayload, flow: flow, reliable: true}, false, "straggler died")
	ns.eng.finish(4, &packet{kind: kindPayload, flow: flow, ackTo: simnet.Addr(5), reliable: true}, true, "")
	if ns.eng.AcksSent != 1 {
		t.Fatalf("AcksSent = %d, want 1: the terminal ACKs the late delivery", ns.eng.AcksSent)
	}
	ns.eng.handleAck(&packet{kind: kindAck, flow: flow})
	if fired != 1 || ns.eng.FailFlows != 1 || ns.eng.PacketsLost != 2 || ns.eng.AcksRecv != 0 {
		t.Fatalf("late packets re-counted: fired=%d FailFlows=%d PacketsLost=%d AcksRecv=%d",
			fired, ns.eng.FailFlows, ns.eng.PacketsLost, ns.eng.AcksRecv)
	}
}
