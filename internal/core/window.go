package core

import (
	"time"

	"tap/internal/transport"
	"tap/internal/wire"
)

// dupAckThreshold is the number of duplicate cumulative ACKs that triggers
// a fast retransmit of the oldest unacknowledged request; streamMaxRTO caps
// exponential backoff and the initial timeout.
const (
	dupAckThreshold = 3
	streamMaxRTO    = 30 * time.Second
)

// rttEstimator is the RFC 6298 smoothed round-trip estimator: SRTT and
// RTTVAR with gains 1/8 and 1/4, RTO = SRTT + 4·RTTVAR. Callers apply
// Karn's rule by never feeding samples from retransmitted segments.
type rttEstimator struct {
	srtt   transport.Time
	rttvar transport.Time
	valid  bool
}

func (r *rttEstimator) observe(sample transport.Time) {
	if !r.valid {
		r.srtt = sample
		r.rttvar = sample / 2
		r.valid = true
		return
	}
	d := r.srtt - sample
	if d < 0 {
		d = -d
	}
	r.rttvar += (d - r.rttvar) / 4
	r.srtt += (sample - r.srtt) / 8
}

// rto is the estimate clamped to [floor, streamMaxRTO], or init before the
// first sample.
func (r *rttEstimator) rto(init, floor transport.Time) transport.Time {
	if !r.valid {
		return init
	}
	return min(max(r.srtt+4*r.rttvar, floor), streamMaxRTO)
}

// WindowOwner holds the requests a SendWindow numbers: the window calls it
// from its own methods and its timer event. An owner is a pointer, so
// reaching it allocates nothing, and the window is its own timer event
// (Fire). A simulator workload opens streams by the thousand, so a window
// must cost no object beyond its ring, which the simulator's engine lends
// from one finished stream to the next.
type WindowOwner interface {
	// Send puts one copy of request seq on the wire; rtx counts the copies
	// sent before it.
	Send(seq uint64, rtx int)
	// Backoff reports an RTO expiry, the expiries-th in a row, before the
	// head is re-sent: the timeout has doubled to rto.
	Backoff(rto transport.Time, expiries int)
	// GiveUp reports that request seq went unanswered through tries
	// transmissions, the retry budget; it is not re-sent again.
	GiveUp(seq uint64, tries int)
}

// windowSlot is one ring entry: the window's record of one request, whose
// content the owner keeps.
type windowSlot struct {
	seq    uint64
	sentAt transport.Time
	rtx    int  // retransmissions so far; >0 disables RTT sampling (Karn)
	sacked bool // answered out of order, never retransmitted
	used   bool
}

// SendWindow is the send half of the one reliability protocol: requests
// numbered from 0, at most a ring's worth in flight, and one retransmit
// timer on the head. The timer expires an RTO after the window last moved,
// re-sends the head and doubles the RTO; progress resets it from an RFC
// 6298 estimate, which Karn's rule keeps re-sent requests out of. Its
// clock is a transport.Clock and its wire its owner, so it runs unchanged
// in the simulator and the deployment, with either of two feeds:
//
//   - cumulative ACKs with selective ranges, from a receiver that sees the
//     sequence (Stream): three duplicates infer the head lost and re-send
//     it at once (fast retransmit);
//   - per-request answers (Answer), which can return over different paths
//     (procnode): their order says nothing about loss, so only the timer
//     re-sends.
//
// A window is ready after Reset. Its methods, its timer event and the
// owner run on one goroutine at a time.
type SendWindow struct {
	clock transport.Clock
	owner WindowOwner

	ring   []windowSlot
	sndUna uint64 // oldest unacknowledged sequence number
	sndNxt uint64 // next sequence number to assign

	done, failed bool // the owner's: either stops the window acting

	rtt             rttEstimator
	rto             transport.Time
	initRTO, minRTO transport.Time // before the first sample; the floor after
	backoffCount    int            // consecutive RTO expirations (reset on progress)
	dupAcks         int
	maxRetries      int // per-request retransmissions before GiveUp

	// Retransmit timer: the window itself, re-armed through the clock.
	// rtxDeadline is when the head times out (0 = nothing outstanding);
	// timerAt is when the scheduled event fires (0 = none). An event that
	// fires early — stale, or before a deadline that moved — re-arms itself
	// for the remainder instead of acting.
	rtxDeadline transport.Time
	timerAt     transport.Time

	maxInflight int
}

// Reset starts w on a new sequence, from 0: at most slots requests in
// flight, an RTO of initRTO (capped at 30 s) until the first sample and of
// at least minRTO after, and retries re-sends of a request before
// owner.GiveUp. A window reset at its size keeps its ring, so only the
// first Reset allocates.
func (w *SendWindow) Reset(clock transport.Clock, owner WindowOwner, slots int, initRTO, minRTO transport.Time, retries int) {
	ring := w.ring
	if len(ring) != slots {
		ring = make([]windowSlot, slots)
	}
	clear(ring)
	*w = SendWindow{clock: clock, owner: owner, ring: ring,
		rto: min(initRTO, streamMaxRTO), initRTO: initRTO, minRTO: minRTO, maxRetries: retries}
}

// Acked returns the sequence number below which every request is answered.
func (w *SendWindow) Acked() uint64 { return w.sndUna }

// HasRoom reports whether a slot is free for Claim.
func (w *SendWindow) HasRoom() bool { return w.inflight() < len(w.ring) }

func (w *SendWindow) slot(seq uint64) *windowSlot { return &w.ring[seq%uint64(len(w.ring))] }

func (w *SendWindow) inflight() int { return int(w.sndNxt - w.sndUna) }

// Claim numbers the next request into a free slot and returns its seq; the
// owner readies what seq carries before Transmit.
func (w *SendWindow) Claim() uint64 {
	sl := w.slot(w.sndNxt)
	*sl = windowSlot{seq: w.sndNxt, used: true}
	w.sndNxt++
	w.maxInflight = max(w.maxInflight, w.inflight())
	return sl.seq
}

// Transmit sends claimed request seq for the first time, arming the timer
// when nothing else is outstanding.
func (w *SendWindow) Transmit(seq uint64) {
	w.send(w.slot(seq))
	if w.rtxDeadline == 0 {
		w.rtxDeadline = w.clock.Now() + w.rto
		w.schedTimer(w.rtxDeadline)
	}
}

// send puts a copy of sl on the wire.
func (w *SendWindow) send(sl *windowSlot) {
	sl.sentAt = w.clock.Now()
	w.owner.Send(sl.seq, sl.rtx)
}

// schedTimer ensures a timer event exists at or before `at`.
func (w *SendWindow) schedTimer(at transport.Time) {
	if w.timerAt != 0 && w.timerAt <= at {
		return // the pending event fires early enough; it will re-arm
	}
	w.timerAt = at
	w.clock.Schedule(at-w.clock.Now(), w)
}

// Fire is the retransmit timer's event (transport.Event): the clock calls
// it when a timer the window scheduled expires.
func (w *SendWindow) Fire() {
	w.timerAt = 0
	if w.done || w.failed || w.inflight() == 0 || w.rtxDeadline == 0 {
		return
	}
	now := w.clock.Now()
	if now < w.rtxDeadline {
		w.schedTimer(w.rtxDeadline)
		return
	}
	// RTO expiry: the retry budget, backoff, and the head re-sent.
	head := w.slot(w.sndUna)
	if !head.used {
		return
	}
	if head.rtx >= w.maxRetries {
		w.owner.GiveUp(head.seq, head.rtx+1)
		return
	}
	w.backoffCount++
	w.rto = min(2*w.rto, streamMaxRTO)
	w.owner.Backoff(w.rto, w.backoffCount)
	w.rearmAfter(now, head)
}

// rearmAfter re-sends the head (timeout or fast retransmit) and restarts
// its timer from now.
func (w *SendWindow) rearmAfter(now transport.Time, head *windowSlot) {
	head.rtx++
	w.send(head)
	w.rtxDeadline = now + w.rto
	w.schedTimer(w.rtxDeadline)
}

// ack applies one cumulative+SACK acknowledgment and reports whether the
// window took it: not once it is over, nor for a seq never sent.
func (w *SendWindow) ack(cum uint64, ranges []wire.AckRange) bool {
	if w.done || w.failed || cum > w.sndNxt {
		return false
	}
	now := w.clock.Now()
	if cum > w.sndUna {
		w.advance(now, cum)
	} else if cum == w.sndUna && w.inflight() > 0 {
		w.dupAcks++
		if w.dupAcks >= dupAckThreshold {
			w.dupAcks = 0
			if head := w.slot(w.sndUna); head.used && !head.sacked {
				w.rearmAfter(now, head)
			}
		}
	}
	for _, r := range ranges {
		if w.done || w.failed {
			break // the re-send above ended the window; its ring is gone
		}
		for seq := max(r.Start, w.sndUna); seq < min(r.End, w.sndNxt); seq++ {
			w.sack(now, w.slot(seq))
		}
	}
	return true
}

// Answer acknowledges request seq alone, one answer of a per-request
// protocol, and slides the window over the answered requests at its head.
// It reports whether seq was awaiting its answer.
func (w *SendWindow) Answer(seq uint64) bool {
	if seq < w.sndUna || seq >= w.sndNxt || !w.slot(seq).used || w.slot(seq).sacked {
		return false
	}
	now := w.clock.Now()
	w.sack(now, w.slot(seq))
	cum := w.sndUna
	for cum < w.sndNxt && w.slot(cum).sacked {
		cum++
	}
	if cum > w.sndUna {
		w.advance(now, cum)
	}
	return true
}

// sack marks a request answered out of order, sampling its RTT (Karn).
func (w *SendWindow) sack(now transport.Time, sl *windowSlot) {
	if sl.used && !sl.sacked {
		sl.sacked = true
		if sl.rtx == 0 {
			w.rtt.observe(now - sl.sentAt)
		}
	}
}

// advance slides the window to cum. Progress resets the backoff and
// restarts the head's timer from now.
func (w *SendWindow) advance(now transport.Time, cum uint64) {
	for seq := w.sndUna; seq < cum; seq++ {
		if sl := w.slot(seq); sl.used {
			if sl.rtx == 0 && !sl.sacked {
				w.rtt.observe(now - sl.sentAt)
			}
			*sl = windowSlot{}
		}
	}
	w.sndUna = cum
	w.dupAcks = 0
	w.backoffCount = 0
	w.rto = w.rtt.rto(w.initRTO, w.minRTO)
	w.rtxDeadline = 0
	if w.inflight() > 0 {
		w.rtxDeadline = now + w.rto
		w.schedTimer(w.rtxDeadline)
	}
}
