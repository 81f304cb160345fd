package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
)

// newPoolSys wires a netSys and a pool, not yet started.
func newPoolSys(t *testing.T, n int, seed uint64, cfg PoolConfig) (*netSys, *Initiator, *TunnelPool) {
	t.Helper()
	ns := newNetSys(t, n, 3, seed)
	in := ns.readyInitiator(t, "pool-owner", 0)
	p, err := NewTunnelPool(in, ns.eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ns, in, p
}

// killAnchor makes a hop anchor unrecoverable: every replica fails in one
// batch (migration suspended, the paper's simultaneous-failure model) and
// detaches from the network.
func killAnchor(t *testing.T, ns *netSys, hop id.ID, spare simnet.Addr) {
	t.Helper()
	ns.mgr.BeginBatch()
	for _, addr := range ns.dir.ReplicaAddrs(hop) {
		if addr == spare {
			continue
		}
		if err := ns.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
		ns.net.Detach(addr)
	}
	ns.mgr.EndBatch()
}

func TestPoolFormsDisjointAndStaysHealthy(t *testing.T) {
	ns, _, p := newPoolSys(t, 300, 41, PoolConfig{Size: 3, Length: 3})
	p.Start()
	if err := ns.kernel.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.HealthyCount() != 3 {
		t.Fatalf("healthy = %d, want 3", p.HealthyCount())
	}
	if p.Stats.ProbesSent == 0 || p.Stats.ProbesOK == 0 {
		t.Fatalf("no probes ran: %+v", p.Stats)
	}
	if p.Stats.ProbesFailed != 0 || p.Stats.SlotDeaths != 0 {
		t.Fatalf("healthy pool saw failures: %+v", p.Stats)
	}
	// The three tunnels must be pairwise disjoint.
	seen := make(map[id.ID]int)
	for _, s := range p.slots {
		for _, h := range s.tunnel.Hops {
			seen[h.HopID]++
		}
	}
	for h, c := range seen {
		if c > 1 {
			t.Fatalf("hop %s shared by %d pool tunnels", h.Short(), c)
		}
	}
	p.Stop()
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if ns.kernel.Pending() != 0 {
		t.Fatalf("%d events still pending after Stop+drain", ns.kernel.Pending())
	}
}

func TestPoolDetectsDeathAttributesAndRebuilds(t *testing.T) {
	ns, _, p := newPoolSys(t, 400, 42, PoolConfig{Size: 3, Length: 3})
	p.Start()
	if err := ns.kernel.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Kill the middle hop of slot 0's tunnel.
	victim := p.slots[0].tunnel.Hops[1].HopID
	killAnchor(t, ns, victim, simnet.NoAddr)
	if err := ns.kernel.RunUntil(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.HealthyCount() != 3 {
		t.Fatalf("pool did not re-converge: healthy = %d, stats %+v", p.HealthyCount(), p.Stats)
	}
	if p.Stats.SlotDeaths == 0 || p.Stats.Rebuilds == 0 {
		t.Fatalf("death not detected or not rebuilt: %+v", p.Stats)
	}
	if p.Stats.Attributions == 0 {
		t.Fatalf("death not attributed: %+v", p.Stats)
	}
	if p.Stats.Repairs == 0 || p.MeanRepairTime() <= 0 {
		t.Fatalf("repair time not measured: %+v", p.Stats)
	}
	// The replacement tunnel must not ride the dead anchor.
	for _, s := range p.slots {
		for _, h := range s.tunnel.Hops {
			if h.HopID == victim {
				t.Fatal("rebuilt tunnel reuses the dead anchor")
			}
		}
	}
	p.Stop()
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixSharesParentLink: an attribution probe rides a prefix of the
// dead tunnel, and what the initiator knows — and learns — about that
// prefix is the parent's: the probe is hinted with the parent's hints, its
// clean delivery clears the parent's backoff memory, and a message exhausted
// over a prefix drops the parent's hints for the hops it rode and leaves its
// backed-off timeout for the parent's next send.
func TestPrefixSharesParentLink(t *testing.T) {
	ns, in, p := newPoolSys(t, 300, 45, PoolConfig{Size: 1, Length: 3})
	tun := p.slots[0].tunnel
	for i := range tun.Hops {
		if tun.Hint(i) == simnet.NoAddr {
			t.Fatalf("pool left hop %d unhinted", i)
		}
	}

	tun.storeRTO(simnet.Time(time.Minute))
	var probed, ok bool
	p.probeTunnel(tun.prefix(2), func(o bool) { probed, ok = true, o })
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !probed || !ok {
		t.Fatalf("prefix probe over a healthy tunnel: fired=%v ok=%v", probed, ok)
	}
	if ns.eng.HintHits == 0 {
		t.Fatal("prefix probe did not ride the parent's hints")
	}
	if got := tun.loadRTO(); got != 0 {
		t.Fatalf("parent backoff memory %v after a first-attempt prefix delivery, want cleared", got)
	}

	killAnchor(t, ns, tun.Hops[1].HopID, simnet.NoAddr)
	out := sendOne(t, ns, in.Node().Ref().Addr, tun.prefix(2), in.NewBid(), 16, 2)
	if out.Delivered || out.Attempts != 2 {
		t.Fatalf("message over the dead prefix should have exhausted: %+v", out)
	}
	if tun.Hint(0) != simnet.NoAddr || tun.Hint(1) != simnet.NoAddr {
		t.Fatalf("prefix exhaustion left the parent hinting %d, %d", tun.Hint(0), tun.Hint(1))
	}
	if tun.Hint(2) == simnet.NoAddr {
		t.Fatal("prefix exhaustion dropped a hop it did not ride")
	}
	if tun.loadRTO() == 0 {
		t.Fatal("prefix backoff not remembered on the parent")
	}
}

// TestProbeDeadlineIsProbeTimeout: a probe is one copy whose timeout is
// probeTimeout, not the stream's initial RTO. An echo slower than a second
// but inside probeTimeout passes and leaves the tunnel's hints alone; an
// echo slower than probeTimeout fails the probe at probeTimeout, counted as
// a probe timeout.
func TestProbeDeadlineIsProbeTimeout(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay simnet.Time
		ok    bool
	}{
		{"slow-echo", simnet.Time(3 * time.Second), true},
		{"late-echo", 2 * probeTimeout, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ns, _, p := newPoolSys(t, 300, 46, PoolConfig{Size: 1, Length: 3})
			tun := p.slots[0].tunnel
			holdFirstBy(ns, kindForward, tc.delay)
			start := p.now()
			var fired int
			var ok bool
			var at simnet.Time
			p.probeTunnel(tun, func(o bool) { fired, ok, at = fired+1, o, p.now() })
			if err := ns.kernel.Run(); err != nil {
				t.Fatal(err)
			}
			if fired != 1 || ok != tc.ok {
				t.Fatalf("probe verdict fired %d times, ok=%v; want once, ok=%v", fired, ok, tc.ok)
			}
			if !tc.ok {
				if at-start != probeTimeout || p.Stats.ProbeTimeouts != 1 {
					t.Fatalf("late echo failed the probe after %v (ProbeTimeouts %d), want %v and 1",
						at-start, p.Stats.ProbeTimeouts, probeTimeout)
				}
				return
			}
			if p.Stats.ProbeTimeouts != 0 || ns.eng.StaleHints != 0 {
				t.Fatalf("slow echo: ProbeTimeouts %d, StaleHints %d; want 0 and 0", p.Stats.ProbeTimeouts, ns.eng.StaleHints)
			}
			for i := range tun.Hops {
				if tun.Hint(i) == simnet.NoAddr {
					t.Fatalf("slow echo dropped hop %d's hint", i)
				}
			}
		})
	}
}

// TestPoolPartitionedInitiatorFailsFast is the satellite-3 regression: a
// partitioned initiator's sends must be rejected immediately (degraded
// state) instead of each burning a full retransmit schedule — and the
// pool must recover on its own once the partition heals.
func TestPoolPartitionedInitiatorFailsFast(t *testing.T) {
	ns, in, p := newPoolSys(t, 300, 43, PoolConfig{Size: 3, Length: 3})
	p.Start()
	if err := ns.kernel.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	pid := ns.net.StartPartition([]simnet.Addr{in.Node().Ref().Addr}, false)
	if err := ns.kernel.RunUntil(65 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !p.degraded {
		t.Fatalf("pool not degraded under partition: healthy=%d stats=%+v", p.HealthyCount(), p.Stats)
	}
	// The send must fail synchronously: error now, no callback, no flow.
	before := ns.kernel.Pending()
	called := false
	err := p.Send(id.HashString("dest"), []byte("x"), func(Outcome) { called = true })
	if !errors.Is(err, ErrPoolDegraded) {
		t.Fatalf("Send = %v, want ErrPoolDegraded", err)
	}
	if called {
		t.Fatal("done callback invoked on a fast-failed send")
	}
	if ns.kernel.Pending() != before {
		t.Fatal("fast-failed send scheduled network work")
	}
	if p.Stats.FastFails == 0 {
		t.Fatal("FastFails not counted")
	}

	// Heal; probes and rebuilds must restore the pool without help.
	ns.net.HealPartition(pid)
	if err := ns.kernel.RunUntil(155 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.degraded || p.HealthyCount() != 3 {
		t.Fatalf("pool did not recover after heal: degraded=%v healthy=%d stats=%+v",
			p.degraded, p.HealthyCount(), p.Stats)
	}
	delivered := false
	if err := p.Send(id.HashString("dest"), []byte("x"), func(o Outcome) { delivered = o.Delivered }); err != nil {
		t.Fatalf("Send after heal: %v", err)
	}
	if err := ns.kernel.RunUntil(185 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("send after heal not delivered")
	}
	p.Stop()
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolSendFailsOverToHealthySlot(t *testing.T) {
	ns, _, p := newPoolSys(t, 400, 44, PoolConfig{Size: 3, Length: 3})
	// No Start: the send itself must discover the dead tunnel and fail
	// over. Kill a hop of the first-ranked slot.
	victim := p.slots[0].tunnel.Hops[0].HopID
	killAnchor(t, ns, victim, simnet.NoAddr)
	var out Outcome
	gotOut := false
	if err := p.Send(id.HashString("dest"), []byte("payload"), func(o Outcome) { out = o; gotOut = true }); err != nil {
		t.Fatal(err)
	}
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotOut || !out.Delivered {
		t.Fatalf("failover send not delivered: %+v", out)
	}
	if p.Stats.Failovers == 0 || p.Stats.SendFailures == 0 {
		t.Fatalf("failover not exercised: %+v", p.Stats)
	}
}

func TestPoolRebuildRateLimited(t *testing.T) {
	ns, _, p := newPoolSys(t, 400, 45, PoolConfig{
		Size: 3, Length: 3,
		// One token, effectively no refill: only one rebuild may be
		// admitted no matter how many tunnels die.
		Limiter: NewRateLimiter(0.0001, 1),
	})
	p.Start()
	if err := ns.kernel.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, s := range p.slots {
		killAnchor(t, ns, s.tunnel.Hops[1].HopID, simnet.NoAddr)
	}
	if err := ns.kernel.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.Stats.SlotDeaths < 3 {
		t.Fatalf("expected all slots to die: %+v", p.Stats)
	}
	if p.Stats.Rebuilds > 1 {
		t.Fatalf("limiter admitted %d rebuilds, budget was 1", p.Stats.Rebuilds)
	}
	if p.Stats.RebuildsDenied == 0 {
		t.Fatal("no rebuilds denied despite empty bucket")
	}
	if p.limiter.Admitted != p.Stats.Rebuilds {
		t.Fatalf("admissions %d != rebuilds %d", p.limiter.Admitted, p.Stats.Rebuilds)
	}
	p.Stop()
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolDeterministic(t *testing.T) {
	run := func() (PoolStats, int) {
		ns, _, p := newPoolSys(t, 300, 46, PoolConfig{Size: 2, Length: 3})
		p.Start()
		if err := ns.kernel.RunUntil(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		killAnchor(t, ns, p.slots[1].tunnel.Hops[2].HopID, simnet.NoAddr)
		if err := ns.kernel.RunUntil(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		p.Stop()
		if err := ns.kernel.Run(); err != nil {
			t.Fatal(err)
		}
		return p.Stats, p.HealthyCount()
	}
	s1, h1 := run()
	s2, h2 := run()
	if s1 != s2 || h1 != h2 {
		t.Fatalf("pool lifecycle not deterministic:\n%+v (healthy %d)\n%+v (healthy %d)", s1, h1, s2, h2)
	}
}

// --- quarantine / limiter units ---------------------------------------------

func TestQuarantineBreakerLifecycle(t *testing.T) {
	var now simnet.Time
	q := NewQuarantine(func() simnet.Time { return now })
	h := id.HashString("hop")
	const base = quarantineBaseOpen

	if q.Blocked(h) {
		t.Fatal("fresh hop blocked")
	}
	q.ReportFailure(h)
	if q.Blocked(h) {
		t.Fatal("blocked below threshold")
	}
	q.ReportFailure(h)
	if !q.Blocked(h) {
		t.Fatal("not blocked after threshold failures")
	}
	// Half-open after the open period.
	now = base + time.Second
	if q.Blocked(h) {
		t.Fatal("still blocked after open period (no half-open)")
	}
	// Failing the trial re-opens for twice as long.
	q.ReportFailure(h)
	if !q.Blocked(h) {
		t.Fatal("not re-opened after failed trial")
	}
	now += base + time.Second // past one base period, within the doubled window
	if !q.Blocked(h) {
		t.Fatal("re-open did not double the period")
	}
	now += base
	if q.Blocked(h) {
		t.Fatal("not half-open after doubled period")
	}
	// Passing the trial closes the breaker entirely.
	q.ReportSuccess(h)
	if q.Blocked(h) || q.Closes != 1 {
		t.Fatalf("breaker not closed by successful trial (closes=%d)", q.Closes)
	}
}

func TestQuarantineStrikeOut(t *testing.T) {
	var now simnet.Time
	q := NewQuarantine(func() simnet.Time { return now })
	h := id.HashString("bad-hop")
	q.ReportFailure(h) // one below the threshold: the next failure opens
	struck := false
	for i := 0; i < quarantineStrikeOut; i++ {
		if struck {
			t.Fatalf("struck out after %d opens, want %d", i, quarantineStrikeOut)
		}
		struck = q.ReportFailure(h)
		now += maxQuarantineOpen // past each open window: next failure is a failed trial
	}
	if !struck || q.Strikes != 1 {
		t.Fatalf("no strike-out after %d opens (strikes=%d)", quarantineStrikeOut, q.Strikes)
	}
	if q.Blocked(h) {
		t.Fatal("struck-out hop still tracked")
	}
}

func TestQuarantineSuccessResetsStreak(t *testing.T) {
	var now simnet.Time
	q := NewQuarantine(func() simnet.Time { return now })
	h := id.HashString("flappy")
	q.ReportFailure(h)
	q.ReportSuccess(h)
	q.ReportFailure(h)
	if q.Blocked(h) {
		t.Fatal("success did not reset the failure streak")
	}
}

func TestFormTunnelAvoidsQuarantinedAnchors(t *testing.T) {
	s := newSys(t, 300, 3, 47)
	in := s.readyInitiator(t, "a", 12)
	var now simnet.Time
	q := NewQuarantine(func() simnet.Time { return now })
	in.Quarantine = q
	bad := in.Pool()[0].HopID
	for i := 0; i < quarantineThreshold; i++ {
		q.ReportFailure(bad)
	}
	if !q.Blocked(bad) {
		t.Fatal("test setup: anchor not quarantined")
	}
	for i := 0; i < 20; i++ {
		tun, err := in.FormTunnel(3)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range tun.Hops {
			if h.HopID == bad {
				t.Fatal("formed tunnel over a quarantined anchor")
			}
		}
	}
}

func TestRateLimiterBucket(t *testing.T) {
	rl := NewRateLimiter(0.5, 2)
	if !rl.Allow(0) || !rl.Allow(0) {
		t.Fatal("burst tokens not granted")
	}
	if rl.Allow(0) {
		t.Fatal("empty bucket granted a token")
	}
	// 0.5/s for 4s refills 2 tokens (capped at burst).
	if !rl.Allow(4*time.Second) || !rl.Allow(4*time.Second) {
		t.Fatal("refill not granted")
	}
	if rl.Allow(4 * time.Second) {
		t.Fatal("over-refill granted")
	}
	if rl.Admitted != 4 || rl.Denied != 2 {
		t.Fatalf("admitted=%d denied=%d", rl.Admitted, rl.Denied)
	}
	if b := rl.Bound(10 * time.Second); b != 2+5 {
		t.Fatalf("Bound = %v, want 7", b)
	}
}

// TestRateLimiterExtremes: an unbounded limiter admits every call, however
// many come at one instant, and a (0, 0) limiter admits none.
func TestRateLimiterExtremes(t *testing.T) {
	open, closed := NewRateLimiter(math.Inf(1), math.Inf(1)), NewRateLimiter(0, 0)
	for _, at := range []simnet.Time{0, 0, 0, time.Second, time.Second, time.Hour} {
		if !open.Allow(at) {
			t.Fatalf("an unbounded limiter denied a call at %v after %d admissions", at, open.Admitted)
		}
		if closed.Allow(at) {
			t.Fatalf("a (0, 0) limiter admitted a call at %v", at)
		}
	}
}

// TestPoolRetiresADroppingHop: a hop node that keeps its anchor but drops
// the hop's traffic is caught by the probes, not by failure detection.
// The pool declares the tunnel dead, attributes the death to that hop,
// and rebuilds on other anchors until it is back at strength.
func TestPoolRetiresADroppingHop(t *testing.T) {
	ns, _, p := newPoolSys(t, 400, 47, PoolConfig{Size: 3, Length: 3})
	p.Start()
	if err := ns.kernel.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := p.slots[0].tunnel.Hops[1].HopID
	evil, ok := ns.dir.HopNode(victim)
	if !ok {
		t.Fatal("no hop node")
	}
	evilAddr := evil.Ref().Addr
	ns.svc.HopFilter = func(addr simnet.Addr, hopID id.ID) bool {
		return addr != evilAddr || hopID != victim
	}
	if err := ns.kernel.RunUntil(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.HealthyCount() != p.TargetSize() {
		t.Fatalf("healthy = %d, want %d; stats %+v", p.HealthyCount(), p.TargetSize(), p.Stats)
	}
	if p.Stats.SlotDeaths == 0 || p.Stats.Attributions == 0 || p.Stats.Repairs == 0 {
		t.Fatalf("dropping hop not detected, attributed and repaired: %+v", p.Stats)
	}
	for _, s := range p.slots {
		for _, h := range s.tunnel.Hops {
			if h.HopID == victim {
				t.Fatal("a pool tunnel still rides the dropping hop")
			}
		}
	}
	p.Stop()
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolDegradesWhenEveryHopDrops: in a network where every node drops
// tunnel traffic no tunnel ever echoes a probe, so the pool never trusts
// one: it goes degraded and refuses sends at once.
func TestPoolDegradesWhenEveryHopDrops(t *testing.T) {
	ns, _, p := newPoolSys(t, 300, 48, PoolConfig{Size: 3, Length: 3})
	ns.svc.HopFilter = func(simnet.Addr, id.ID) bool { return false }
	p.Start()
	if err := ns.kernel.RunUntil(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.HealthyCount() != 0 || p.Stats.ProbesOK != 0 {
		t.Fatalf("healthy = %d, ProbesOK = %d in an all-dropping network", p.HealthyCount(), p.Stats.ProbesOK)
	}
	if !p.degraded {
		t.Fatalf("pool not degraded: %+v", p.Stats)
	}
	err := p.Send(id.HashString("dest"), []byte("x"), func(Outcome) { t.Error("done called on a refused send") })
	if !errors.Is(err, ErrPoolDegraded) {
		t.Fatalf("Send = %v, want ErrPoolDegraded", err)
	}
	p.Stop()
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRebuildFailureBacksOffAndDegrades: a rebuild whose anchor
// deployment is refused books a failure, pushes the slot's next attempt
// back by the jittered backoff, and after degradedAfter failed cycles
// leaves the pool degraded, so Send fails fast while the only usable
// tunnel is unproven. The loop is driven by hand, without Start, so each
// cycle is observed on its own.
func TestPoolRebuildFailureBacksOffAndDegrades(t *testing.T) {
	ns, in, p := newPoolSys(t, 300, 49, PoolConfig{Size: 2, Length: 3})
	dead, unproven := p.slots[0], p.slots[1]
	unproven.health = slotRecovering // as a fresh rebuild is
	for _, h := range dead.tunnel.Hops {
		killAnchor(t, ns, h.HopID, simnet.NoAddr)
	}
	p.teardown(dead)

	// A deployment is refused when the hopid it mints is already stored.
	// A generator restarted from a fixed hkey mints a known first hopid,
	// so storing that one first refuses the initiator's next deployment.
	nid := in.Node().ID()
	fixedGen := func() *tha.Generator {
		g, err := tha.NewGenerator(nid[:], bytes.NewReader(make([]byte, 16)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	taken, err := fixedGen().Generate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.dir.Deploy(taken.Anchor, 0); err != nil {
		t.Fatal(err)
	}

	for cycle := 1; cycle <= degradedAfter; cycle++ {
		in.gen = fixedGen()
		now := p.now()
		p.tryRebuild()
		if p.Stats.Rebuilds != uint64(cycle) || p.Stats.RebuildFailures != uint64(cycle) {
			t.Fatalf("cycle %d: Rebuilds = %d, RebuildFailures = %d, want %d each",
				cycle, p.Stats.Rebuilds, p.Stats.RebuildFailures, cycle)
		}
		if dead.health != slotEmpty || dead.tunnel != nil {
			t.Fatalf("cycle %d: failed rebuild left the slot %v", cycle, dead.health)
		}
		backoff := rebuildBackoffMin * simnet.Time(1<<(cycle-1))
		if dead.backoff != backoff {
			t.Fatalf("cycle %d: backoff = %v, want %v", cycle, dead.backoff, backoff)
		}
		lo := now + simnet.Time(float64(backoff)*(1-rebuildJitterFrac))
		hi := now + simnet.Time(float64(backoff)*(1+rebuildJitterFrac))
		if dead.nextRebuildAt < lo || dead.nextRebuildAt > hi {
			t.Fatalf("cycle %d: next attempt at %v, want within [%v, %v]", cycle, dead.nextRebuildAt, lo, hi)
		}
		// Nothing is retried before the backoff runs out.
		p.tryRebuild()
		if p.Stats.Rebuilds != uint64(cycle) {
			t.Fatalf("cycle %d: slot rebuilt again before its backoff ran out", cycle)
		}
		if want := cycle >= degradedAfter; p.degraded != want {
			t.Fatalf("cycle %d: degraded = %v, want %v", cycle, p.degraded, want)
		}
		if err := ns.kernel.RunUntil(dead.nextRebuildAt); err != nil {
			t.Fatal(err)
		}
	}
	if p.Stats.DegradedEnters != 1 {
		t.Fatalf("DegradedEnters = %d, want 1", p.Stats.DegradedEnters)
	}
	err = p.Send(id.HashString("dest"), []byte("x"), func(Outcome) { t.Error("done called on a refused send") })
	if !errors.Is(err, ErrPoolDegraded) {
		t.Fatalf("Send = %v, want ErrPoolDegraded", err)
	}
}
