package core

import (
	"testing"
	"time"

	"tap/internal/transport"
	"tap/internal/wire"
)

// windowRig is a bare SendWindow's clock and owner: time moves only when
// the test runs it, and every transmission is recorded.
type windowRig struct {
	now    transport.Time
	events []rigEvent
	sends  []rigSend
}

type rigEvent struct {
	at transport.Time
	ev transport.Event
}

type rigSend struct {
	seq uint64
	rtx int
	at  transport.Time
}

func (r *windowRig) Now() transport.Time { return r.now }

func (r *windowRig) Schedule(delay transport.Time, ev transport.Event) {
	r.events = append(r.events, rigEvent{r.now + delay, ev})
}

// runUntil fires every event due by t, earliest first, then sets the clock
// to t.
func (r *windowRig) runUntil(t transport.Time) {
	for {
		next := -1
		for i, ev := range r.events {
			if ev.at <= t && (next < 0 || ev.at < r.events[next].at) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		ev := r.events[next]
		r.events = append(r.events[:next], r.events[next+1:]...)
		r.now = ev.at
		ev.ev.Fire()
	}
	r.now = t
}

func (r *windowRig) Send(seq uint64, rtx int) {
	r.sends = append(r.sends, rigSend{seq, rtx, r.now})
}
func (r *windowRig) Backoff(transport.Time, int) {}
func (r *windowRig) GiveUp(uint64, int)          {}
func (r *windowRig) push(w *SendWindow, n int) {
	for range n {
		w.Transmit(w.Claim())
	}
}

// TestSendWindowFastRetransmit: three duplicate cumulative ACKs — segment
// 0 lost, 1 to 3 held above it — re-send the head at once, exactly once,
// long before its RTO would.
func TestSendWindowFastRetransmit(t *testing.T) {
	r := &windowRig{}
	var w SendWindow
	w.Reset(r, r, 8, streamInitRTO, streamMinRTO, streamMaxRetries)
	r.push(&w, 4)
	r.runUntil(10 * time.Millisecond)
	for held := uint64(2); held <= 4; held++ {
		w.ack(0, []wire.AckRange{{Start: 1, End: held}})
	}
	want := []rigSend{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}, {0, 1, 10 * time.Millisecond}}
	if len(r.sends) != len(want) {
		t.Fatalf("sends = %v, want %v", r.sends, want)
	}
	for i := range want {
		if r.sends[i] != want[i] {
			t.Fatalf("sends = %v, want %v", r.sends, want)
		}
	}
	w.ack(4, nil)
	r.runUntil(time.Minute)
	if len(r.sends) != len(want) || w.Acked() != 4 {
		t.Errorf("sends = %v and %d acked after the last ACK, want no more sends and 4", r.sends, w.Acked())
	}
}

// TestSendWindowAnswersInAnyOrder: per-request answers slide the window
// only over answered requests, wherever they arrive from, and never stand
// for duplicate ACKs — three answers above an unanswered head re-send
// nothing. An answer given twice, or for a seq not yet claimed, is refused.
func TestSendWindowAnswersInAnyOrder(t *testing.T) {
	r := &windowRig{}
	var w SendWindow
	w.Reset(r, r, 8, time.Second, time.Second, 3)
	r.push(&w, 6)
	r.runUntil(10 * time.Millisecond)
	for _, a := range []struct{ seq, acked uint64 }{{3, 0}, {1, 0}, {4, 0}, {0, 2}, {2, 5}, {5, 6}} {
		if !w.Answer(a.seq) {
			t.Fatalf("answer for %d refused", a.seq)
		}
		if got := w.Acked(); got != a.acked {
			t.Fatalf("after answering %d, %d acked, want %d", a.seq, got, a.acked)
		}
	}
	if w.Answer(3) || w.Answer(6) {
		t.Error("a second answer, or one for an unclaimed seq, was taken")
	}
	r.runUntil(time.Minute)
	if len(r.sends) != 6 {
		t.Errorf("sends = %v, want the six first transmissions only", r.sends)
	}
}
