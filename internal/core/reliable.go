package core

import (
	"fmt"
	"time"

	"tap/internal/id"
	"tap/internal/simnet"
)

// Reliability configures NetEngine's end-to-end ACK/timeout/retransmit
// protocol. The paper's §6 resilience claim is about the tunnel *anchors*:
// when a hop node fails, the THA replica closest to the hopid takes over.
// This protocol supplies the matching traffic resilience: the terminal of
// a flow acknowledges delivery, the initiator retransmits on timeout with
// exponential backoff and jitter, and each retransmission re-resolves
// every hop through DHT routing — so a message lost to a mid-flight node
// crash is re-driven to whichever replica now holds the hop anchor.
//
// The ACK travels the overt path (a direct transmission to the flow
// origin's address, which the terminal of a measured flow knows in this
// harness). In a deployment the ACK would ride a §4 reply tunnel to keep
// the initiator anonymous; the timing difference is one tunnel traversal,
// and the retransmit logic is identical. Anonymity experiments therefore
// run with reliability off (the default).
type Reliability struct {
	// MaxAttempts bounds the total end-to-end send attempts per flow
	// (first transmission included). Default 8.
	MaxAttempts int
}

// The retransmit timer's policy: fixed, so that a delivered fraction or a
// latency measured under loss names one protocol.
const (
	// rtoScale multiplies the estimated one-way delivery time to produce
	// the initial retransmit timeout.
	rtoScale = 2
	// rtoExpectHops is the overlay hop budget assumed by the timeout
	// estimate — generous is safe (a late timeout only delays recovery;
	// duplicates are suppressed end to end).
	rtoExpectHops = 16
	// rtoBackoff multiplies the timeout after each attempt.
	rtoBackoff = 1.5
	// rtoJitterFrac randomizes each timeout by ±this fraction,
	// desynchronizing retransmissions that share a loss event.
	rtoJitterFrac = 0.1
	// minFlowRTO floors the timeout; a tunnel's remembered backoff that
	// decays to it is forgotten.
	minFlowRTO = 50 * time.Millisecond
	// hintInvalidateAfter is the number of RTO expirations after which a
	// flow or stream bound to a tunnel (SendOpts.Tunnel, a tunnel Stream)
	// stops trusting the remembered hop addresses and drops them all — the
	// exhaust-time path, run early. A dispatch-time miss marks only the
	// hint it tried, so without this a flow whose packets die beyond the
	// first hop keeps dispatching into the same poisoned hints until its
	// budget runs out.
	hintInvalidateAfter = 3
)

// SendOpts tunes one reliable flow and binds it to the tunnel it rode, so
// exhaustion can clean up after a dead tunnel.
type SendOpts struct {
	// MaxAttempts, when > 0, overrides Reliability.MaxAttempts for this
	// flow. Health probes use a small budget so a dead tunnel is detected
	// in one or two RTOs rather than after the full backoff schedule.
	MaxAttempts int
	// Tunnel binds the flow to the tunnel it was built over: the flow
	// starts from and feeds the tunnel's backoff memory, and when it
	// exhausts its attempt budget every hop's hint is marked stale and
	// dropped: the initiator has concluded the tunnel is dead, so its
	// hints must not poison later flows.
	Tunnel *Tunnel
}

// flowState is the initiator-side record of one flow whose outcome has not
// fired. A flow with no resend is fire-and-forget: one attempt, no timer.
type flowState struct {
	origin simnet.Addr
	done   func(Outcome) // may be nil
	// resend builds a fresh attempt: the packet plus the first-hop
	// address hint to try (the hint is re-checked against the stale set
	// on every dispatch).
	resend   func() (*packet, simnet.Addr)
	opts     SendOpts
	attempts int
	// gen invalidates superseded timers: only the timer armed for the
	// current attempt may act.
	gen     int
	rto     simnet.Time
	firstAt simnet.Time
	lastAt  simnet.Time
	lastErr string // why the most recent packet died, when observed
	// hintsInvalidated marks that the repeated-RTO hint eviction already
	// ran for this flow.
	hintsInvalidated bool
}

// maxAttempts resolves the per-flow attempt budget.
func (st *flowState) maxAttempts(rel *Reliability) int {
	if st.opts.MaxAttempts > 0 {
		return st.opts.MaxAttempts
	}
	return rel.MaxAttempts
}

// ackRecord is the terminal-side dedup state for a delivered reliable
// flow: enough to re-ACK duplicates without re-delivering.
type ackRecord struct {
	to       simnet.Addr
	dataHops int
}

// hintKey identifies one (hop target, hinted address) pair in the stale
// set.
type hintKey struct {
	target id.ID
	addr   simnet.Addr
}

// EnableReliability turns on the ACK/retransmit protocol for all flows
// started afterwards. Flows already in flight keep fire-and-forget
// semantics.
func (e *NetEngine) EnableReliability(cfg Reliability) {
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 8
	}
	e.rel = &cfg
}

// --- per-tunnel backoff memory ----------------------------------------------
//
// Reliable flows and streams over one tunnel share the backed-off timeout
// on its link, so a new send over a tunnel that just proved lossy starts
// from the inherited backoff instead of resetting it.

// loadRTO returns the tunnel's remembered backed-off timeout (zero: none).
func (t *Tunnel) loadRTO() simnet.Time {
	l := t.linked()
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.rto
}

// storeRTO records a backed-off timeout observed on the tunnel.
func (t *Tunnel) storeRTO(rto simnet.Time) {
	l := t.linked()
	l.mu.Lock()
	l.rto = rto
	l.mu.Unlock()
}

// relaxRTO eases the tunnel's backoff memory after a delivery: a
// first-attempt success clears it outright, a delivery that needed
// retransmits halves it, forgetting it once it decays to the floor.
func (t *Tunnel) relaxRTO(firstAttempt bool) {
	l := t.linked()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rto /= 2
	if firstAttempt || l.rto <= minFlowRTO {
		l.rto = 0
	}
}

// markStaleHint records a dead-end hint; hintStale queries it. Entries
// never expire: a hop anchor that migrates back to a previously-stale
// address is still reached via DHT routing, just without the shortcut.
func (e *NetEngine) markStaleHint(target id.ID, addr simnet.Addr) {
	k := hintKey{target, addr}
	if _, ok := e.staleHints[k]; ok {
		return
	}
	e.staleHints[k] = struct{}{}
	e.StaleHints++
}

func (e *NetEngine) hintStale(target id.ID, addr simnet.Addr) bool {
	_, ok := e.staleHints[hintKey{target, addr}]
	return ok
}

// invalidateTunnelHints drops every hop's remembered address and records
// the dead ends, so stale hints cannot keep poisoning later dispatches.
// This is the exhaust-time cleanup, shared by flow exhaustion, repeated RTO
// expiry, and stream failure. A flow bound to no tunnel has none.
func (e *NetEngine) invalidateTunnelHints(t *Tunnel) {
	if t == nil {
		return
	}
	for i, h := range t.Hops {
		if a := t.Hint(i); a != simnet.NoAddr {
			e.markStaleHint(h.HopID, a)
			t.dropHint(i)
		}
	}
}

// initialRTO estimates a generous one-way delivery time for a message of
// the given size: rtoExpectHops store-and-forward hops, each paying full
// serialization plus the worst-case link latency, scaled by rtoScale. A
// flow bound to a tunnel (opts.Tunnel) inherits that tunnel's remembered
// backoff when it is longer: retransmit state is per tunnel, not per
// message, so a lossy tunnel does not reset to the optimistic initial
// timeout on every new send.
func (e *NetEngine) initialRTO(size int, opts SendOpts) simnet.Time {
	perHop := e.net.Serialization(size) + e.net.MaxLatency()
	rto := simnet.Time(float64(int64(perHop)*rtoExpectHops) * rtoScale)
	if rto < minFlowRTO {
		rto = minFlowRTO
	}
	if opts.Tunnel != nil {
		if stored := opts.Tunnel.loadRTO(); stored > rto {
			rto = stored
		}
	}
	return rto
}

// attempt transmits one copy of the flow, built by build, and on a
// reliable flow arms its retransmit timer.
func (e *NetEngine) attempt(flow uint64, st *flowState, build func() (*packet, simnet.Addr)) {
	st.attempts++
	st.lastAt = e.net.Now()
	if st.attempts > 1 {
		e.Retransmits++
	}
	p, hint := build()
	p.flow, p.ackTo, p.reliable = flow, st.origin, st.resend != nil
	if p.reliable {
		e.armTimer(flow, st)
	}
	e.dispatch(st.origin, p, hint)
}

// armTimer schedules the timeout for the current attempt. A stale timer
// (the flow finished, or a newer attempt took over) is a no-op.
func (e *NetEngine) armTimer(flow uint64, st *flowState) {
	st.gen++
	gen := st.gen
	wait := simnet.Time(float64(st.rto) * (1 + rtoJitterFrac*(2*e.jitter.Float64()-1)))
	e.net.Schedule(wait, func() {
		cur, ok := e.flows[flow]
		if !ok || cur.gen != gen {
			return
		}
		if cur.attempts >= cur.maxAttempts(e.rel) {
			e.exhaust(flow, cur)
			return
		}
		cur.rto = simnet.Time(float64(cur.rto) * rtoBackoff)
		if cur.opts.Tunnel != nil {
			// Per-tunnel backoff memory: later flows over this tunnel
			// start from the backed-off timeout instead of resetting it.
			cur.opts.Tunnel.storeRTO(cur.rto)
		}
		if !cur.hintsInvalidated && cur.attempts >= hintInvalidateAfter {
			// Repeated RTO expiry: every retransmission is dying
			// somewhere past dispatch, so the cached hop addresses are no
			// longer trustworthy. Run the exhaust-time eviction now so
			// the remaining attempts re-resolve via the DHT.
			cur.hintsInvalidated = true
			e.invalidateTunnelHints(cur.opts.Tunnel)
		}
		e.attempt(flow, cur, cur.resend)
	})
}

// exhaust gives up on a reliable flow after its attempt budget: the
// initiator concludes the tunnel is dead (every retransmission would need
// a hop anchor with no live replica, or the path loses every copy).
func (e *NetEngine) exhaust(flow uint64, st *flowState) {
	e.FailFlows++
	// The tunnel this flow rode is presumed dead: evict every hop's cached
	// address and remember the dead ends, so the stale hints cannot keep
	// poisoning later flows (they would each burn a hint miss per send
	// until somebody refreshed the cache).
	e.invalidateTunnelHints(st.opts.Tunnel)
	why := st.lastErr
	if why == "" {
		why = "no ACK"
	}
	e.conclude(flow, st, Outcome{
		FailedAt: fmt.Sprintf("retransmit budget exhausted after %d attempts (%s)", st.attempts, why),
	})
}

// ackDelivery runs at the terminal node when a reliable flow's data
// arrives: record the first delivery and ACK the origin; a duplicate — a
// retransmission that raced the ACK, or outlived it — is re-ACKed from the
// record, the earlier ACK may have been lost, and never re-delivered. The
// terminal's own acked table is all it consults.
func (e *NetEngine) ackDelivery(self simnet.Addr, p *packet) {
	if rec, ok := e.acked[p.flow]; ok && !e.DisableAckDedup {
		e.DupDeliveries++
		e.observeDeliver(p.flow, true)
		e.sendAck(self, p.flow, rec)
		return
	}
	rec := ackRecord{to: p.ackTo, dataHops: p.hops}
	e.acked[p.flow] = rec
	e.observeDeliver(p.flow, false)
	e.sendAck(self, p.flow, rec)
}

// observeDeliver fires the terminal-delivery observer, when installed.
func (e *NetEngine) observeDeliver(flow uint64, dup bool) {
	if e.OnDeliver != nil {
		e.OnDeliver(flow, dup)
	}
}

// sendAck transmits the end-to-end ACK over the overt path.
func (e *NetEngine) sendAck(self simnet.Addr, flow uint64, rec ackRecord) {
	e.AcksSent++
	ack := &packet{kind: kindAck, flow: flow, dataHops: rec.dataHops}
	e.send(self, rec.to, ack)
}

// handleAck completes a reliable flow at its initiator. Duplicate ACKs —
// retransmitted data racing an earlier ACK — are ignored.
func (e *NetEngine) handleAck(p *packet) {
	st, ok := e.flows[p.flow]
	if !ok {
		return
	}
	e.AcksRecv++
	if st.opts.Tunnel != nil {
		// Delivered on the first attempt: the tunnel proved healthy, drop
		// its backoff memory. Delivered after retransmits: decay rather
		// than reset, so a marginal tunnel keeps some caution.
		st.opts.Tunnel.relaxRTO(st.attempts == 1)
	}
	e.conclude(p.flow, st, Outcome{Delivered: true, NetHops: p.dataHops})
}
