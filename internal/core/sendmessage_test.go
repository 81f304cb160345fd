package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tap/internal/id"
	"tap/internal/simnet"
)

// sendOne sends one reliable message over tun, drains the kernel, and
// returns the outcome, failing unless it fired exactly once.
func sendOne(t *testing.T, ns *netSys, origin simnet.Addr, tun *Tunnel, dest id.ID, size, attempts int) Outcome {
	t.Helper()
	var out Outcome
	fired := 0
	ns.eng.SendMessage(origin, tun, dest, make([]byte, size), attempts, func(o Outcome) { out = o; fired++ })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("outcome fired %d times, want exactly once", fired)
	}
	return out
}

// holdFirst makes the network hold the first transmission of the given
// packet kind back by 5 s — several initial RTOs — so a retransmission
// races it.
func holdFirst(ns *netSys, kind byte) {
	holdFirstBy(ns, kind, simnet.Time(5*time.Second))
}

// holdFirstBy holds the first transmission of the given packet kind back
// by delay.
func holdFirstBy(ns *netSys, kind byte, delay simnet.Time) {
	held := false
	ns.net.ExtraDelay = func(_, _ simnet.Addr, msg simnet.Message) simnet.Time {
		if p, ok := msg.(*packet); ok && p.kind == kind && !held {
			held = true
			return delay
		}
		return 0
	}
}

// countDeliveries counts the message payloads the engine's receivers hand
// to the application.
func countDeliveries(ns *netSys) *int {
	n := new(int)
	ns.eng.OnStream = func(rs *RecvStream) {
		rs.OnData = func(uint64, []byte) { *n++ }
	}
	return n
}

// TestTerminalAckDedupBothOrders: when the original and a retransmitted
// copy of a message both reach the terminal, whichever arrives first is
// delivered; the second is suppressed as a duplicate but still re-ACKed
// (the first ACK may have been lost). Both arrival orders must behave
// identically.
func TestTerminalAckDedupBothOrders(t *testing.T) {
	for _, tc := range []struct {
		name string
		hold byte // the kind whose first transmission is held past the RTO
	}{
		{"original-first", kindStreamAck}, // the first ACK is late: the retransmission lands second
		{"retransmit-first", kindForward}, // the first copy is late: the retransmission overtakes it
	} {
		t.Run(tc.name, func(t *testing.T) {
			ns := newNetSys(t, 150, 3, 33)
			ns.net.Link = fixedLink(20 * time.Millisecond)
			in := ns.readyInitiator(t, "a", 12)
			tun, err := in.FormTunnel(3)
			if err != nil {
				t.Fatal(err)
			}
			holdFirst(ns, tc.hold)
			delivered := countDeliveries(ns)
			out := sendOne(t, ns, in.Node().Ref().Addr, tun, id.HashString("d"), 100, 3)
			if !out.Delivered || out.Attempts != 2 {
				t.Fatalf("outcome %+v, want delivery after one retransmission", out)
			}
			if *delivered != 1 {
				t.Fatalf("terminal delivered the message %d times, want once", *delivered)
			}
			if ns.eng.StreamDupSegs != 1 {
				t.Fatalf("StreamDupSegs = %d, want 1", ns.eng.StreamDupSegs)
			}
			if ns.eng.StreamAcksSent != 2 {
				t.Fatalf("StreamAcksSent = %d, want 2 (duplicate must be re-ACKed)", ns.eng.StreamAcksSent)
			}
		})
	}
}

// TestMessageOutcomeFiresOnce: a message whose only copy is late gives up
// at its RTO; the copy then lands, and the terminal — which cannot know the
// origin gave up — delivers and ACKs it, but the origin's outcome has fired
// and the ACK changes nothing.
func TestMessageOutcomeFiresOnce(t *testing.T) {
	ns := newNetSys(t, 150, 3, 34)
	ns.net.Link = fixedLink(20 * time.Millisecond)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	holdFirst(ns, kindForward)
	delivered := countDeliveries(ns)
	out := sendOne(t, ns, in.Node().Ref().Addr, tun, id.HashString("d"), 100, 1)
	if out.Delivered || out.Attempts != 1 || !strings.Contains(out.FailedAt, "retransmit budget exhausted") {
		t.Fatalf("outcome %+v, want a failure after one attempt", out)
	}
	if *delivered != 1 || ns.eng.StreamAcksSent != 1 {
		t.Fatalf("late copy: delivered %d times, %d ACKs; want 1 and 1", *delivered, ns.eng.StreamAcksSent)
	}
}

// TestMessageArrivesWholeAtAnySize: a message is one segment however long
// its payload — from a byte to about four default segment sizes — and
// arrives once, in one OnData call, with its bytes, over the overt path and
// over a tunnel alike.
func TestMessageArrivesWholeAtAnySize(t *testing.T) {
	for _, mode := range []string{"overt", "tunnel"} {
		t.Run(mode, func(t *testing.T) {
			ns := newNetSys(t, 150, 3, 35)
			in := ns.readyInitiator(t, "a", 12)
			var tun *Tunnel
			if mode == "tunnel" {
				var err error
				if tun, err = in.FormTunnel(3); err != nil {
					t.Fatal(err)
				}
			}
			got := make(map[uint64][][]byte)
			ns.eng.OnStream = func(rs *RecvStream) {
				rs.OnData = func(_ uint64, b []byte) { got[rs.ID()] = append(got[rs.ID()], bytes.Clone(b)) }
			}
			sent := make(map[uint64][]byte)
			delivered := 0
			for size := 1; size <= 4000; size += 37 {
				var dest id.ID
				ns.root.Bytes(dest[:])
				payload := make([]byte, size)
				ns.root.Bytes(payload)
				sid := ns.eng.SendMessage(in.Node().Ref().Addr, tun, dest, payload, 3, func(o Outcome) {
					if o.Delivered {
						delivered++
					}
				})
				sent[sid] = payload
			}
			if err := ns.kernel.Run(); err != nil {
				t.Fatal(err)
			}
			if delivered != len(sent) {
				t.Fatalf("%d of %d messages delivered", delivered, len(sent))
			}
			for sid, payload := range sent {
				if calls := got[sid]; len(calls) != 1 || !bytes.Equal(calls[0], payload) {
					t.Fatalf("a %d-byte message arrived in %d OnData calls, or with other bytes", len(payload), len(calls))
				}
			}
		})
	}
}

// TestNetReliableOvertUnderLoss: messages without a tunnel ride the overt
// path as direct window-1 streams, and under 20% loss every one still
// arrives, some only after retransmission.
func TestNetReliableOvertUnderLoss(t *testing.T) {
	ns := newNetSys(t, 200, 3, 22)
	ns.net.InstallFaults(&simnet.FaultPlan{Seed: 5, LossRate: 0.2})
	from := ns.ov.RandomLive(ns.root.Split("src"))
	delivered := countDeliveries(ns)

	const msgs = 10
	outs := make([]Outcome, msgs)
	fired := make([]int, msgs)
	for i := 0; i < msgs; i++ {
		var dest id.ID
		ns.root.Bytes(dest[:])
		ns.eng.SendMessage(from.Ref().Addr, nil, dest, make([]byte, 20_000), 12, func(o Outcome) { outs[i] = o; fired[i]++ })
	}
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	retried := false
	for i := range outs {
		if fired[i] != 1 {
			t.Fatalf("message %d: outcome fired %d times, want once", i, fired[i])
		}
		if !outs[i].Delivered {
			t.Fatalf("message %d failed under 20%% loss with retransmission: %+v", i, outs[i])
		}
		if outs[i].Attempts > 1 {
			retried = true
		}
	}
	if !retried {
		t.Fatalf("20%% loss over %d messages produced no retransmissions (StreamSegsRetx=%d)", msgs, ns.eng.StreamSegsRetx)
	}
	if *delivered != msgs {
		t.Fatalf("receivers delivered %d messages, want %d", *delivered, msgs)
	}
	if ns.eng.StreamAcksSent < msgs {
		t.Fatalf("StreamAcksSent = %d, want at least one per message", ns.eng.StreamAcksSent)
	}
}

// TestReliableFinishDoesNotDoubleCount: a message's transmissions that die
// mid-route are counted as lost segments — never FailFlows, which belongs to
// fire-and-forget flows — and the message's failure verdict fires once.
func TestReliableFinishDoesNotDoubleCount(t *testing.T) {
	ns := newNetSys(t, 300, 3, 31)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	origin := in.Node().Ref().Addr
	killHop(t, ns, tun, 1, origin)
	out := sendOne(t, ns, origin, tun, id.HashString("d"), 500, 3)
	if out.Delivered || out.Attempts != 3 {
		t.Fatalf("message should have exhausted its budget of 3: %+v", out)
	}
	if ns.eng.StreamSegsLost == 0 || ns.eng.StreamSegsLost > uint64(out.Attempts) {
		t.Fatalf("StreamSegsLost = %d, want between 1 and the %d transmissions", ns.eng.StreamSegsLost, out.Attempts)
	}
	if ns.eng.FailFlows != 0 || len(ns.eng.flows) != 0 {
		t.Fatalf("message deaths reached the flow table: FailFlows=%d open flows=%d", ns.eng.FailFlows, len(ns.eng.flows))
	}
}

// TestSendOptsMaxAttemptsOverride: a message with a small budget — a pool
// probe's — gives up after that budget, not the bulk stream default.
func TestSendOptsMaxAttemptsOverride(t *testing.T) {
	ns := newNetSys(t, 300, 3, 32)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	origin := in.Node().Ref().Addr
	killHop(t, ns, tun, 0, origin)
	out := sendOne(t, ns, origin, tun, id.HashString("d"), 100, 2)
	if out.Delivered || out.Attempts != 2 {
		t.Fatalf("per-message budget not honored (bulk default %d retries): %+v", streamMaxRetries, out)
	}
}

// TestReliableFlowBackoffMemory: a message over a tunnel with a stored
// backoff starts from the stored timeout, not the optimistic initial RTO,
// and a clean first-attempt delivery drops the tunnel's memory.
func TestReliableFlowBackoffMemory(t *testing.T) {
	ns := newNetSys(t, 400, 3, 39)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	stored := simnet.Time(60 * time.Second)
	tun.storeRTO(stored)
	var out Outcome
	sid := ns.eng.SendMessage(in.Node().Ref().Addr, tun, id.HashString("flow-file"), patternData(512), 10, func(o Outcome) { out = o })
	if s := ns.eng.sendStreams[sid]; s == nil || s.rto != stored {
		t.Fatalf("message did not inherit the tunnel's rto %v", stored)
	}
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !out.Delivered || out.Attempts != 1 {
		t.Fatalf("outcome %+v, want a first-attempt delivery", out)
	}
	if tun.loadRTO() != 0 {
		t.Fatal("first-attempt delivery should drop the tunnel's backoff memory")
	}
}

// TestReliableFlowRepeatedRTOInvalidatesHints: a message whose
// retransmissions keep dying drops its tunnel's remembered hop addresses
// at hintInvalidateAfter expirations — long before its budget exhausts.
func TestReliableFlowRepeatedRTOInvalidatesHints(t *testing.T) {
	ns := newNetSys(t, 400, 3, 40)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	for i, h := range tun.Hops {
		if tun.Hint(i) == simnet.NoAddr {
			t.Fatalf("hop %s unhinted before the message", h.HopID.Short())
		}
	}
	// Every transmission dies in flight: the message sees only RTO expiry.
	ns.net.InstallFaults(&simnet.FaultPlan{Seed: 3, LossRate: 1})
	sid := ns.eng.SendMessage(in.Node().Ref().Addr, tun, id.HashString("rto-file"), patternData(512), 10, nil)
	// streamInitRTO (1 s) doubling per expiry: the third expiry — the
	// invalidation point — is at 7 s, while ten attempts run past 100 s.
	if err := ns.kernel.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, pending := ns.eng.sendStreams[sid]; !pending {
		t.Fatal("message exhausted before the mid-run check; timing assumption broken")
	}
	for i, h := range tun.Hops {
		if a := tun.Hint(i); a != simnet.NoAddr {
			t.Fatalf("hop %s hint still remembered after repeated RTO expiry", h.HopID.Short())
		}
	}
	if ns.eng.StaleHints == 0 {
		t.Fatal("repeated-RTO eviction recorded no stale hints")
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
	out := sendOne(t, ns, origin, tun, id.HashString("d"), 1000, 8)
	if !out.Delivered {
		t.Fatalf("message did not survive first-hop crash: %+v", out)
	}
	if out.Attempts < 2 {
		t.Fatalf("first copy was headed into the crash window but Attempts=%d", out.Attempts)
	}
	if !ns.eng.hintStale(tun.Hops[0].HopID, victim) {
		t.Fatalf("stale set does not contain the crashed first-hop hint")
	}
}

// killHop makes hop i of tun unrecoverable: every replica fails in one
// batch and detaches, the origin's own node spared.
func killHop(t *testing.T, ns *netSys, tun *Tunnel, i int, origin simnet.Addr) {
	t.Helper()
	ns.mgr.BeginBatch()
	for _, addr := range ns.dir.ReplicaAddrs(tun.Hops[i].HopID) {
		if addr == origin {
			continue
		}
		if err := ns.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
		ns.net.Detach(addr)
	}
	ns.mgr.EndBatch()
	if ns.dir.Available(tun.Hops[i].HopID) {
		t.Skip("initiator holds a replica of its own hop anchor at this seed")
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
	killHop(t, ns, tun, 1, origin)
	out := sendOne(t, ns, origin, tun, id.HashString("d"), 100, 3)
	if out.Delivered {
		t.Fatalf("message delivered through a dead anchor")
	}
	if out.Attempts != 3 {
		t.Fatalf("Attempts = %d, want the full budget of 3", out.Attempts)
	}
	if !strings.Contains(out.FailedAt, "retransmit budget exhausted") {
		t.Fatalf("FailedAt = %q", out.FailedAt)
	}
}

// TestExhaustInvalidatesTunnelHints: when a message burns its whole
// budget, the initiator has concluded the tunnel is dead — so the tunnel's
// hint for every hop it rode must be dropped (and remembered as stale), not
// just the ones a direct send happened to miss.
func TestExhaustInvalidatesTunnelHints(t *testing.T) {
	ns := newNetSys(t, 300, 3, 31)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	// Each transmission dies at the middle hop, so the message exhausts.
	killHop(t, ns, tun, 1, simnet.NoAddr)
	out := sendOne(t, ns, in.Node().Ref().Addr, tun, id.HashString("d"), 500, 3)
	if out.Delivered || out.Attempts != 3 {
		t.Fatalf("message should have exhausted its budget of 3: %+v", out)
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

// TestNetReliableChurnProperty is the in-flight churn property: a message
// completes if and only if every hop anchor retains a live replica once
// the dust settles — hop-node crashes mid-flight are survived via THA
// failover, and a truly dead tunnel fails cleanly within the budget.
func TestNetReliableChurnProperty(t *testing.T) {
	survived, died := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		killAll := seed%2 == 0
		ns := newNetSys(t, 250, 3, 900+seed)
		in := ns.readyInitiator(t, "a", 12)
		tun, err := in.FormTunnel(4)
		if err != nil {
			t.Fatal(err)
		}
		origin := in.Node().Ref().Addr
		var dest id.ID
		ns.root.Bytes(dest[:])

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

		out := sendOne(t, ns, origin, tun, dest, 1000, 6)
		functional := true
		for _, h := range tun.Hops {
			if !ns.dir.Available(h.HopID) {
				functional = false
			}
		}
		if functional && !out.Delivered {
			t.Fatalf("seed %d: every hop anchor has a live replica but the message failed: %+v", seed, out)
		}
		if !functional && out.Delivered {
			t.Fatalf("seed %d: message delivered through a tunnel with a lost anchor", seed)
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
		in := ns.readyInitiator(t, "a", 10)
		tun, err := in.FormTunnel(3)
		if err != nil {
			t.Fatal(err)
		}
		out := sendOne(t, ns, in.Node().Ref().Addr, tun, id.HashString("d"), 10_000, 12)
		if !out.Delivered {
			t.Fatalf("message failed: %+v", out)
		}
		return out.At, out.Attempts
	}
	at1, att1 := run()
	at2, att2 := run()
	if at1 != at2 || att1 != att2 {
		t.Fatalf("reliable delivery not deterministic: (%v,%d) vs (%v,%d)", at1, att1, at2, att2)
	}
}
