package core

import (
	"time"

	"tap/internal/id"
	"tap/internal/simnet"
)

// QuarantineConfig tunes the per-initiator hop quarantine scoreboard.
type QuarantineConfig struct {
	// Threshold is the number of attributed failures that open an
	// anchor's circuit breaker. Default 2: one failure can be collateral
	// (an imperfect attribution during churn), two is a pattern.
	Threshold int
	// BaseOpen is the first open period; each re-open after a failed
	// half-open trial doubles it, up to maxQuarantineOpen. Default 30s.
	BaseOpen simnet.Time
	// StrikeOut retires an anchor for good after this many opens (0 =
	// never). A hop that keeps failing its half-open trials sits on a
	// node that is down, overloaded, or hostile; past this point the
	// initiator deletes the anchor rather than keep paying trial probes.
	// Default 3.
	StrikeOut int
}

func (c QuarantineConfig) withDefaults() QuarantineConfig {
	if c.Threshold == 0 {
		c.Threshold = 2
	}
	if c.BaseOpen == 0 {
		c.BaseOpen = 30 * time.Second
	}
	if c.StrikeOut == 0 {
		c.StrikeOut = 3
	}
	return c
}

// maxQuarantineOpen caps the doubling of an anchor's open period.
const maxQuarantineOpen = 5 * time.Minute

// Quarantine is a per-initiator circuit breaker over hop anchors. Hops
// that probes attribute failures to are quarantined (their breaker opens)
// and excluded from tunnel formation; after the open period expires the
// breaker is half-open — the anchor may be used again, and the next
// reported outcome either closes the breaker (success) or re-opens it for
// twice as long (failure). This is the scoreboard FormTunnel and
// FormDisjointTunnels consult, so a flapping or hostile hop node stops
// attracting fresh tunnels without being written off forever.
type Quarantine struct {
	cfg QuarantineConfig
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
func NewQuarantine(cfg QuarantineConfig, now func() simnet.Time) *Quarantine {
	return &Quarantine{cfg: cfg.withDefaults(), now: now, m: make(map[id.ID]*qEntry)}
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
		if e.fails >= q.cfg.Threshold {
			e.fails = 0
			e.open = true
			if e.openDur == 0 {
				e.openDur = q.cfg.BaseOpen
			}
			e.openUntil = q.now() + e.openDur
			e.opens++
			q.Opens++
		}
	}
	if q.cfg.StrikeOut > 0 && e.opens >= q.cfg.StrikeOut {
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
// calls (the simulated clock is).
func (rl *RateLimiter) Allow(now simnet.Time) bool {
	if !rl.primed {
		rl.tokens = rl.Burst
		rl.last = now
		rl.primed = true
	}
	rl.tokens += rl.Rate * (now - rl.last).Seconds()
	if rl.tokens > rl.Burst {
		rl.tokens = rl.Burst
	}
	rl.last = now
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
