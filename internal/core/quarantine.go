package core

import (
	"time"

	"tap/internal/id"
	"tap/internal/simnet"
)

// The per-initiator hop quarantine scoreboard's policy.
const (
	// quarantineThreshold is the number of attributed failures that open
	// an anchor's circuit breaker: one failure can be collateral (an
	// imperfect attribution during churn), two is a pattern.
	quarantineThreshold = 2
	// quarantineBaseOpen is the first open period; each re-open after a
	// failed half-open trial doubles it, up to maxQuarantineOpen.
	quarantineBaseOpen = 30 * time.Second
	maxQuarantineOpen  = 5 * time.Minute
	// quarantineStrikeOut retires an anchor for good after this many
	// opens. A hop that keeps failing its half-open trials sits on a node
	// that is down, overloaded, or hostile; past this point the initiator
	// deletes the anchor rather than keep paying trial probes.
	quarantineStrikeOut = 3
)

// Quarantine is a per-initiator circuit breaker over hop anchors. Hops
// that probes attribute failures to are quarantined (their breaker opens)
// and excluded from tunnel formation; after the open period expires the
// breaker is half-open — the anchor may be used again, and the next
// reported outcome either closes the breaker (success) or re-opens it for
// twice as long (failure). This is the scoreboard FormTunnel and
// FormDisjointTunnels consult, so a flapping or hostile hop node stops
// attracting fresh tunnels without being written off forever.
type Quarantine struct {
	now func() simnet.Time
	m   map[id.ID]*qEntry

	// Stats.
	Opens   uint64 // breakers opened (first time)
	Reopens uint64 // failed half-open trials
	Closes  uint64 // successful half-open trials
	Strikes uint64 // anchors that struck out
}

// qEntry is one anchor's breaker state.
type qEntry struct {
	fails     int         // consecutive failures while closed
	opens     int         // times this breaker has opened
	openDur   simnet.Time // current open period
	openUntil simnet.Time
	open      bool
}

// NewQuarantine builds a quarantine on the given clock.
func NewQuarantine(now func() simnet.Time) *Quarantine {
	return &Quarantine{now: now, m: make(map[id.ID]*qEntry)}
}

// Blocked reports whether hop formation should avoid this anchor right
// now. An expired open period reads as not blocked: that is the half-open
// trial admission.
func (q *Quarantine) Blocked(h id.ID) bool {
	e := q.m[h]
	return e != nil && e.open && q.now() < e.openUntil
}

// ReportFailure records an attributed failure against an anchor and
// reports whether it has struck out (the caller should retire it).
func (q *Quarantine) ReportFailure(h id.ID) (strikeOut bool) {
	e := q.m[h]
	if e == nil {
		e = &qEntry{}
		q.m[h] = e
	}
	switch {
	case e.open && q.now() >= e.openUntil:
		// Failed its half-open trial: re-open for twice as long.
		e.openDur *= 2
		if e.openDur > maxQuarantineOpen {
			e.openDur = maxQuarantineOpen
		}
		e.openUntil = q.now() + e.openDur
		e.opens++
		q.Reopens++
	case e.open:
		// Already open; an extra report (e.g. a second tunnel sharing the
		// hop) extends nothing — the breaker is doing its job.
	default:
		e.fails++
		if e.fails >= quarantineThreshold {
			e.fails = 0
			e.open = true
			if e.openDur == 0 {
				e.openDur = quarantineBaseOpen
			}
			e.openUntil = q.now() + e.openDur
			e.opens++
			q.Opens++
		}
	}
	if e.opens >= quarantineStrikeOut {
		q.Strikes++
		delete(q.m, h) // the caller retires the anchor; no state to keep
		return true
	}
	return false
}

// ReportSuccess records that a hop served correctly. A half-open anchor
// closes its breaker; a closed anchor's failure streak resets.
func (q *Quarantine) ReportSuccess(h id.ID) {
	e := q.m[h]
	if e == nil {
		return
	}
	if e.open && q.now() >= e.openUntil {
		q.Closes++
		delete(q.m, h)
		return
	}
	if !e.open {
		e.fails = 0
	}
}

// RateLimiter is a deterministic token bucket on the simulated clock: the
// pool's global rebuild admission control. Mass churn kills many tunnels
// at once; without admission control every pool would rebuild immediately
// and the coordinated storm of anchor deployments and probe traffic is
// both a load spike and a correlatable signal for an intersection
// adversary. Share one limiter across pools to cap the aggregate rate.
type RateLimiter struct {
	// Rate is the sustained admissions per second; Burst the bucket
	// capacity (and initial fill).
	Rate  float64
	Burst float64

	tokens float64
	last   simnet.Time
	primed bool

	Admitted uint64
	Denied   uint64
}

// NewRateLimiter returns a full bucket.
func NewRateLimiter(rate, burst float64) *RateLimiter {
	return &RateLimiter{Rate: rate, Burst: burst}
}

// Allow consumes one token if available. now must be monotone across
// calls (the simulated clock is). The bucket refills only when time has
// advanced: an unbounded Rate times no time at all would be NaN, and a
// bucket of NaN tokens admits nothing ever after.
func (rl *RateLimiter) Allow(now simnet.Time) bool {
	if !rl.primed {
		rl.tokens = rl.Burst
		rl.last = now
		rl.primed = true
	}
	if now > rl.last {
		rl.tokens = min(rl.tokens+rl.Rate*(now-rl.last).Seconds(), rl.Burst)
		rl.last = now
	}
	if rl.tokens >= 1 {
		rl.tokens--
		rl.Admitted++
		return true
	}
	rl.Denied++
	return false
}

// Bound returns the most admissions the bucket could have granted by
// elapsed time now: the initial burst plus refill. The dst rebuild-rate
// invariant checks admission counts against it.
func (rl *RateLimiter) Bound(now simnet.Time) float64 {
	return rl.Burst + rl.Rate*now.Seconds()
}
