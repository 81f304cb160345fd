package core

import (
	"errors"
	"time"

	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/transport"
)

// TunnelPool keeps N disjoint tunnels per initiator alive under churn.
// A tunnel formed once and never revisited dies silently: the initiator
// only learns at the next send, after burning a full retransmit schedule.
// The pool closes that gap with an active lifecycle:
//
//   - Periodic end-to-end echo probes over each tunnel. A probe is a
//     small forward-tunnel message whose exit destination is a bid the
//     initiator's own node owns (the §4 reply-delivery condition), so the
//     echo coming home proves every hop decrypted and forwarded.
//   - Binary-search hop attribution on failure: probing prefix
//     sub-tunnels isolates the first hop that no longer serves, in
//     O(log l) probes instead of l.
//   - The culprit feeds the per-initiator Quarantine, which FormTunnel
//     consults, so replacement tunnels avoid the bad hop.
//   - Dead tunnels are torn down (anchors released for reuse, not
//     deleted) and rebuilt under jittered exponential backoff per slot
//     plus a global RateLimiter, so mass churn cannot trigger a
//     correlated rebuild storm.
//   - Hysteresis: a rebuilt tunnel is "recovering" until it passes
//     healthyThreshold consecutive probes; it only then counts toward
//     the pool's healthy size.
//   - Graceful degradation: Send picks the healthiest slot and fails
//     over to the next on failure; when nothing is usable (e.g. the
//     initiator is partitioned) Send fails fast with ErrPoolDegraded
//     instead of hanging callers on retransmit schedules.
//
// The pool runs entirely on the simulation kernel and owns no goroutines;
// all state is single-threaded like the rest of the engine.
type TunnelPool struct {
	in  *Initiator
	eng *NetEngine
	cfg PoolConfig

	quar    *Quarantine
	limiter *RateLimiter
	stream  *rng.Stream
	slots   []*poolSlot
	// nonce is every probe's payload, drawn afresh for each: a probe is
	// sent once and sealed as it is sent, so nothing reads it after.
	nonce [16]byte

	started  bool
	stopped  bool
	degraded bool
	// consecRebuildFails counts rebuild cycles that failed to produce a
	// trusted tunnel (formation error, or death while recovering) since
	// the last promotion. Crossing degradedAfter flips the pool degraded.
	consecRebuildFails int

	Stats PoolStats
}

// PoolConfig sizes a TunnelPool. The lifecycle policy — probe cadence,
// thresholds, rebuild backoff — is the constants below; see DESIGN.md §11
// for why these particular values.
type PoolConfig struct {
	// Size is the target number of healthy tunnels (default 3); Length
	// their hop count (default 3, the paper's default l). The pool keeps
	// Length anchors deployed beyond Size*Length so a rebuild can avoid
	// quarantined anchors without a deployment round trip.
	Size   int
	Length int

	// Limiter is the global rebuild admission control, shared across
	// pools to cap the aggregate rebuild rate. Nil gets a private
	// limiter (0.2/s sustained, burst Size).
	Limiter *RateLimiter
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Size == 0 {
		c.Size = 3
	}
	if c.Length == 0 {
		c.Length = 3
	}
	return c
}

const (
	// probeInterval is the per-slot echo cadence, jittered by
	// probeJitterFrac so pools across a network do not synchronize.
	// probeTimeout declares an unanswered probe failed; probeAttempts is
	// the probe message's transmission budget — probes are cheap and
	// frequent, so they detect rather than persist. The one copy's timeout
	// is probeTimeout, not the stream's 1 s initial RTO, so a slow but
	// healthy echo is not taken for a dead tunnel. sendAttempts is the
	// budget for pool data sends: enough to ride out one transient loss,
	// small enough that failover to another tunnel is fast.
	probeInterval   = 2 * time.Second
	probeJitterFrac = 0.1
	probeTimeout    = 5 * time.Second
	probeAttempts   = 1
	sendAttempts    = 3

	// failThreshold consecutive probe failures declare a tunnel dead: one
	// failure can be loss, two in a row is a dead hop. healthyThreshold
	// consecutive successes promote a recovering tunnel: hysteresis so a
	// flapping path cannot oscillate the pool's health accounting.
	failThreshold    = 2
	healthyThreshold = 2

	// Rebuild backoff per slot: first retry after rebuildBackoffMin,
	// multiplied by rebuildBackoffFactor per consecutive failure up to
	// rebuildBackoffMax, jittered by rebuildJitterFrac.
	rebuildBackoffMin    = time.Second
	rebuildBackoffMax    = 8 * time.Second
	rebuildBackoffFactor = 2
	rebuildJitterFrac    = 0.2

	// degradedAfter consecutive failed rebuild cycles flip the pool into
	// the degraded state.
	degradedAfter = 2
)

// PoolStats counts pool lifecycle activity.
type PoolStats struct {
	ProbesSent    uint64
	ProbesOK      uint64
	ProbesFailed  uint64
	ProbeTimeouts uint64

	SlotDeaths   uint64 // tunnels declared dead
	Attributions uint64 // deaths attributed to a specific hop

	Rebuilds        uint64 // rebuild attempts admitted (tunnel formed or tried)
	RebuildsDenied  uint64 // rebuilds refused by the rate limiter
	RebuildFailures uint64 // admitted rebuilds whose formation failed

	Sends        uint64 // pool sends accepted
	SendFailures uint64 // individual tunnel attempts that failed
	Failovers    uint64 // sends retried over another tunnel
	FastFails    uint64 // sends rejected immediately (degraded)

	DegradedEnters uint64
	DegradedExits  uint64

	Repairs    uint64      // slots restored to healthy after a death
	RepairTime simnet.Time // total dead-to-healthy time across repairs
}

// slotHealth is a slot's lifecycle position.
type slotHealth int

const (
	slotEmpty      slotHealth = iota // no tunnel; awaiting rebuild
	slotRecovering                   // tunnel formed, not yet trusted
	slotHealthy                      // passing probes
	slotDying                        // declared dead; attribution running
)

// poolSlot is one of the pool's tunnel positions.
type poolSlot struct {
	idx     int
	tunnel  *Tunnel
	health  slotHealth
	probing bool

	consecOK   int
	consecFail int

	// deadSince anchors the time-to-repair measurement: set at the first
	// death, cleared at the next promotion.
	deadSince    simnet.Time
	hasDeadSince bool

	// backoff is the slot's current rebuild delay (grows on failed
	// rebuild cycles); nextRebuildAt gates the next attempt.
	backoff       simnet.Time
	nextRebuildAt simnet.Time
}

// Pool errors.
var (
	// ErrPoolDegraded means no tunnel is currently usable; the send was
	// rejected immediately rather than queued behind a doomed
	// retransmit schedule. Callers back off and retry; the pool's
	// probes and rebuilds keep working toward recovery.
	ErrPoolDegraded = errors.New("core: tunnel pool degraded: no usable tunnel")
	// ErrPoolStopped means the pool was shut down.
	ErrPoolStopped = errors.New("core: tunnel pool stopped")
)

// NewTunnelPool builds a pool of cfg.Size disjoint tunnels for the
// initiator, deploying any missing anchors, and installs the hop
// quarantine on the initiator. Call Start to begin the probe loop.
func NewTunnelPool(in *Initiator, eng *NetEngine, cfg PoolConfig) (*TunnelPool, error) {
	cfg = cfg.withDefaults()
	p := &TunnelPool{
		in:      in,
		eng:     eng,
		cfg:     cfg,
		limiter: cfg.Limiter,
		stream:  in.stream.Split("tunnel-pool"),
	}
	if p.limiter == nil {
		p.limiter = NewRateLimiter(0.2, float64(cfg.Size))
	}
	p.quar = NewQuarantine(eng.net.Now)
	in.Quarantine = p.quar

	if err := p.ensureAnchors(); err != nil {
		return nil, err
	}
	tunnels, err := in.FormDisjointTunnels(cfg.Size, cfg.Length)
	if err != nil {
		return nil, err
	}
	for i, t := range tunnels {
		// Best effort: an unresolvable hop just means DHT routing for it.
		_ = t.RefreshHints(in.svc)
		p.slots = append(p.slots, &poolSlot{idx: i, tunnel: t, health: slotHealthy})
	}
	return p, nil
}

// Start begins the periodic probe/rebuild loop.
func (p *TunnelPool) Start() {
	if p.started {
		return
	}
	p.started = true
	p.scheduleTick()
}

// Stop halts the probe loop. In-flight probes resolve as no-ops; a pending
// tick timer drains without rescheduling, so a simulation kernel reaches
// quiescence.
func (p *TunnelPool) Stop() { p.stopped = true }

// now reads the simulated clock.
func (p *TunnelPool) now() simnet.Time { return p.eng.net.Now() }

// jittered spreads d by ±frac.
func (p *TunnelPool) jittered(d simnet.Time, frac float64) simnet.Time {
	if d <= 0 {
		return d
	}
	return simnet.Time(float64(d) * (1 + frac*(2*p.stream.Float64()-1)))
}

func (p *TunnelPool) scheduleTick() {
	p.eng.net.Schedule(p.jittered(probeInterval, probeJitterFrac), transport.Func(func() {
		if p.stopped {
			return
		}
		p.tick()
		p.scheduleTick()
	}))
}

// tick is one lifecycle round: probe every live slot, fill empty ones.
func (p *TunnelPool) tick() {
	p.ProbeRound()
	p.tryRebuild()
	p.updateState()
}

// ProbeRound fires an echo probe on every slot that holds a tunnel and is
// not already probing. Exposed for the probe-cycle benchmark and tests;
// the Start loop calls it every probeInterval.
func (p *TunnelPool) ProbeRound() {
	for _, s := range p.slots {
		if s.tunnel != nil && s.health != slotDying && !s.probing {
			p.probeSlot(s)
		}
	}
}

// probeSlot sends one end-to-end echo over the slot's tunnel.
func (p *TunnelPool) probeSlot(s *poolSlot) {
	s.probing = true
	p.Stats.ProbesSent++
	p.probeTunnel(s.tunnel, func(ok bool) {
		s.probing = false
		if p.stopped {
			return
		}
		p.onProbeResult(s, ok)
	})
}

// probeTunnel sends an echo probe over t, invoking cb once with the verdict:
// the probe message's outcome. The message is sent once with probeTimeout
// as its timeout, so an echo not home by then fails the probe — the
// message's own timer is the probe deadline. The probe destination is a bid
// owned by the initiator's own node, so delivery loops the full tunnel and
// comes home — the same §4 mechanism reply tunnels use.
func (p *TunnelPool) probeTunnel(t *Tunnel, cb func(ok bool)) {
	p.stream.Bytes(p.nonce[:])
	sent := p.now()
	p.eng.sendMessage(p.in.node.Ref().Addr, t, p.in.NewBid(), p.nonce[:], probeAttempts, probeTimeout, func(o Outcome) {
		if !o.Delivered && o.At-sent >= probeTimeout {
			p.Stats.ProbeTimeouts++
		}
		cb(o.Delivered)
	})
}

// onProbeResult applies one probe verdict to a slot.
func (p *TunnelPool) onProbeResult(s *poolSlot, ok bool) {
	if s.tunnel == nil || s.health == slotDying {
		return // the slot moved on while the probe was in flight
	}
	if ok {
		p.Stats.ProbesOK++
		s.consecFail = 0
		s.consecOK++
		// Every hop served: clear quarantine strikes, close half-open
		// breakers.
		for _, h := range s.tunnel.Hops {
			p.quar.ReportSuccess(h.HopID)
		}
		if s.health == slotRecovering && s.consecOK >= healthyThreshold {
			p.promote(s)
		}
	} else {
		p.Stats.ProbesFailed++
		s.consecOK = 0
		s.consecFail++
		if s.consecFail >= failThreshold {
			p.declareDead(s)
		}
	}
	p.updateState()
}

// promote marks a recovering slot healthy and settles its repair timing.
func (p *TunnelPool) promote(s *poolSlot) {
	s.health = slotHealthy
	s.backoff = 0
	p.consecRebuildFails = 0
	if s.hasDeadSince {
		p.Stats.Repairs++
		p.Stats.RepairTime += p.now() - s.deadSince
		s.hasDeadSince = false
	}
}

// declareDead starts a dead slot's attribution-then-teardown sequence.
// Attribution must finish before teardown: the prefix probes need the
// tunnel's anchors still deployed.
func (p *TunnelPool) declareDead(s *poolSlot) {
	p.Stats.SlotDeaths++
	if !s.hasDeadSince {
		s.deadSince = p.now()
		s.hasDeadSince = true
	}
	if s.health == slotRecovering {
		// A rebuilt tunnel died before earning trust: that rebuild cycle
		// failed, so the slot's backoff grows.
		p.noteRebuildFailure(s)
	}
	s.health = slotDying
	p.attribute(s.tunnel, func(culprit id.ID, found bool) {
		if found {
			p.Stats.Attributions++
			if p.quar.ReportFailure(culprit) {
				// Struck out: the anchor is retired for good. The tunnel
				// must be released first so DropAnchor sees it unused.
				p.teardown(s)
				p.in.DropAnchor(culprit)
				return
			}
		}
		p.teardown(s)
	})
}

// attribute binary-searches for the first hop at which the tunnel stops
// echoing: probe the prefix sub-tunnel of m hops (its exit routes the
// echo home from hop m-1); if the echo returns, the fault is deeper.
// Invariant: the lo-prefix works, the hi-prefix fails; the culprit is
// hop hi-1. O(log l) probes against l for a linear scan.
func (p *TunnelPool) attribute(t *Tunnel, done func(culprit id.ID, found bool)) {
	l := len(t.Hops)
	if l == 0 {
		done(id.ID{}, false)
		return
	}
	if l == 1 {
		done(t.Hops[0].HopID, true)
		return
	}
	lo, hi := 0, l
	var step func()
	step = func() {
		if p.stopped {
			done(id.ID{}, false)
			return
		}
		if hi-lo <= 1 {
			done(t.Hops[hi-1].HopID, true)
			return
		}
		mid := (lo + hi) / 2
		p.probeTunnel(t.prefix(mid), func(ok bool) {
			if ok {
				lo = mid
			} else {
				hi = mid
			}
			step()
		})
	}
	step()
}

// prefix returns the sub-tunnel of t's first m hops, sharing the parent's
// link — attribution probes ride its hints, and what they learn is the
// parent's — and, through the hops' anchor cells, its key schedules.
func (t *Tunnel) prefix(m int) *Tunnel {
	return &Tunnel{Hops: t.Hops[:m], link: t.linked()}
}

// teardown releases a dead slot's tunnel. Anchors are released back to
// the initiator's pool, not deleted: usually one hop is bad (quarantined
// above) and the rest are reusable by the rebuild.
func (p *TunnelPool) teardown(s *poolSlot) {
	if s.tunnel != nil {
		p.in.Release(s.tunnel)
	}
	s.tunnel = nil
	s.health = slotEmpty
	s.consecOK, s.consecFail = 0, 0
	s.probing = false
	s.nextRebuildAt = p.now() + p.jittered(s.backoff, rebuildJitterFrac)
	p.updateState()
}

// noteRebuildFailure records a failed rebuild cycle against a slot:
// backoff grows exponentially and the pool-wide failure streak advances.
func (p *TunnelPool) noteRebuildFailure(s *poolSlot) {
	p.consecRebuildFails++
	if s.backoff == 0 {
		s.backoff = rebuildBackoffMin
	} else {
		s.backoff = simnet.Time(float64(s.backoff) * rebuildBackoffFactor)
		if s.backoff > rebuildBackoffMax {
			s.backoff = rebuildBackoffMax
		}
	}
}

// tryRebuild fills empty slots: at most one admitted rebuild per tick,
// gated by the slot's backoff and the global rate limiter.
func (p *TunnelPool) tryRebuild() {
	now := p.now()
	for _, s := range p.slots {
		if s.health != slotEmpty || now < s.nextRebuildAt {
			continue
		}
		if !p.limiter.Allow(now) {
			p.Stats.RebuildsDenied++
			// Bucket empty: retry when tokens have refilled; no other
			// slot can be admitted this tick either.
			s.nextRebuildAt = now + probeInterval
			return
		}
		p.rebuild(s)
		return
	}
}

// rebuild forms a replacement tunnel in an empty slot.
func (p *TunnelPool) rebuild(s *poolSlot) {
	p.Stats.Rebuilds++
	if err := p.ensureAnchors(); err != nil {
		p.failRebuild(s)
		return
	}
	t, err := p.in.FormTunnel(p.cfg.Length)
	if err != nil {
		p.failRebuild(s)
		return
	}
	s.tunnel = t
	_ = t.RefreshHints(p.in.svc)
	s.health = slotRecovering
	s.consecOK, s.consecFail = 0, 0
	// Probe immediately: a rebuilt tunnel should earn trust (or fail)
	// without waiting out a tick.
	p.probeSlot(s)
}

// failRebuild books a formation failure and re-arms the slot's backoff.
func (p *TunnelPool) failRebuild(s *poolSlot) {
	p.Stats.RebuildFailures++
	p.noteRebuildFailure(s)
	s.nextRebuildAt = p.now() + p.jittered(s.backoff, rebuildJitterFrac)
	p.updateState()
}

// ensureAnchors tops the initiator's pool up to (Size+1)*Length usable
// (non-quarantined) anchors: one tunnel's worth of spares.
func (p *TunnelPool) ensureAnchors() error {
	target := (p.cfg.Size + 1) * p.cfg.Length
	usable := 0
	for _, s := range p.in.Pool() {
		if !p.quarBlocked(s.HopID) {
			usable++
		}
	}
	if usable >= target {
		return nil
	}
	return p.in.DeployDirect(target - usable)
}

func (p *TunnelPool) quarBlocked(h id.ID) bool {
	return p.quar != nil && p.quar.Blocked(h)
}

// updateState recomputes the degraded flag.
func (p *TunnelPool) updateState() {
	usable := 0
	for _, s := range p.slots {
		if s.health == slotHealthy || s.health == slotRecovering {
			usable++
		}
	}
	deg := usable == 0 || p.consecRebuildFails >= degradedAfter
	if deg == p.degraded {
		return
	}
	p.degraded = deg
	if deg {
		p.Stats.DegradedEnters++
	} else {
		p.Stats.DegradedExits++
	}
}

// Send delivers payload to the owner of dest over the healthiest tunnel,
// failing over to the next-best on failure; each try is one SendMessage
// with sendAttempts transmissions. It returns ErrPoolDegraded immediately
// when no tunnel is usable — the graceful-degradation contract: a
// partitioned initiator learns in O(1), not after a retransmit schedule.
// done (optional) receives the final outcome. Every try reads payload, so
// it must not change until done fires.
func (p *TunnelPool) Send(dest id.ID, payload []byte, done func(Outcome)) error {
	if p.stopped {
		return ErrPoolStopped
	}
	order := p.rankedUsable()
	if len(order) == 0 || (p.degraded && order[0].health != slotHealthy) {
		// Nothing usable — or the pool is degraded and the best on offer
		// is an unproven recovering tunnel, which repeated rebuild
		// failures say will die too. Reject now rather than burn a
		// retransmit schedule.
		p.Stats.FastFails++
		return ErrPoolDegraded
	}
	p.Stats.Sends++
	var try func(i int, prev Outcome)
	try = func(i int, prev Outcome) {
		if i >= len(order) {
			if done != nil {
				done(prev)
			}
			return
		}
		s := order[i]
		if s.tunnel == nil || s.health == slotDying {
			try(i+1, prev) // the slot died since ranking
			return
		}
		p.eng.SendMessage(p.in.node.Ref().Addr, s.tunnel, dest, payload, sendAttempts, func(o Outcome) {
			if o.Delivered {
				if done != nil {
					done(o)
				}
				return
			}
			p.Stats.SendFailures++
			p.noteSendFailure(s)
			if i+1 < len(order) {
				p.Stats.Failovers++
			}
			try(i+1, o)
		})
	}
	try(0, Outcome{})
	return nil
}

// noteSendFailure feeds a failed data send into the slot's health
// accounting — a failed send is as strong a death signal as a failed
// probe, and fresher.
func (p *TunnelPool) noteSendFailure(s *poolSlot) {
	if p.stopped || s.tunnel == nil || s.health == slotDying {
		return
	}
	s.consecOK = 0
	s.consecFail++
	if s.consecFail >= failThreshold {
		p.declareDead(s)
	}
	p.updateState()
}

// rankedUsable orders the usable slots best-first: healthy before
// recovering, longer success streaks first, slot order as tiebreak (a
// deterministic ranking keeps simulations replayable).
func (p *TunnelPool) rankedUsable() []*poolSlot {
	var out []*poolSlot
	for _, s := range p.slots {
		if s.health == slotHealthy || s.health == slotRecovering {
			out = append(out, s)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && poolRankLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func poolRankLess(a, b *poolSlot) bool {
	if (a.health == slotHealthy) != (b.health == slotHealthy) {
		return a.health == slotHealthy
	}
	if a.consecOK != b.consecOK {
		return a.consecOK > b.consecOK
	}
	return a.idx < b.idx
}

// --- introspection ----------------------------------------------------------

// TargetSize returns the configured pool size.
func (p *TunnelPool) TargetSize() int { return p.cfg.Size }

// HealthyCount returns the number of slots currently trusted healthy.
func (p *TunnelPool) HealthyCount() int {
	n := 0
	for _, s := range p.slots {
		if s.health == slotHealthy {
			n++
		}
	}
	return n
}

// MeanRepairTime returns the average dead-to-healthy repair time, or 0
// when no repair has completed.
func (p *TunnelPool) MeanRepairTime() simnet.Time {
	if p.Stats.Repairs == 0 {
		return 0
	}
	return p.Stats.RepairTime / simnet.Time(p.Stats.Repairs)
}
