// Package simnet is the deterministic discrete-event network emulator the
// experiments run on.
//
// The paper evaluates TAP "on a network emulation environment, through
// which the instances of the node software communicate", with every peer in
// a single process, per-link latencies drawn uniformly from 1–230 ms, and
// 1.5 Mb/s links. This package reproduces that substrate: a single-threaded
// event loop with a simulated clock (so a 10,000-node, multi-second
// experiment runs in milliseconds of wall time and is bit-for-bit
// reproducible), plus a link model with pairwise latency and
// store-and-forward serialization delay.
//
// The kernel is deliberately not concurrent: determinism is worth more to a
// simulation than parallelism within one trial. Experiments parallelize
// across trials instead (see internal/experiments).
package simnet

import (
	"fmt"
	"math/bits"
	"time"

	"tap/internal/transport"
)

// Time is an instant on the simulated clock, expressed as the duration
// since the start of the simulation.
type Time = time.Duration

// event is a scheduled timer or delivery. Events live in the kernel's slot
// arena and are referenced by index; the queues shuffle 4-byte slot
// numbers, not pointers, and freed slots are recycled through a freelist so
// Schedule allocates nothing in steady state.
//
// An event is either a timer (fire != nil) or a message delivery (msg !=
// nil): message events carry their operands in the slot itself and run
// through the kernel's OnMessage hook, so scheduling one allocates no
// closure. The two forms share the (at, seq) total order.
type event struct {
	at   Time
	seq  uint64 // tie-break so equal-time events run in schedule order
	fire transport.Event

	// Message-delivery operands (message events only).
	msg      Message
	src, dst Addr
}

// Calendar-queue geometry. Near-future events hash into a ring of buckets
// by time tick (tick = at >> tickShift); each ring slot covers exactly one
// tick of the current window, so the first occupied slot at or after the
// cursor always holds the global minimum among ring events. Events beyond
// the window ("far future", e.g. multi-second timeouts against
// millisecond-scale traffic) wait in a single binary heap and migrate into
// the ring as the window slides over them — a timer-wheel-with-overflow
// design; each event migrates at most once because the window only moves
// forward.
const (
	tickShift   = 20 // 2^20 ns ≈ 1.05 ms per bucket, matching link-latency scale
	numBuckets  = 1024
	bucketMask  = numBuckets - 1
	bitmapWords = numBuckets / 64
	// initialBucketCap pre-sizes every ring bucket. A windowed-stream
	// burst schedules a full send window of same-latency messages onto one
	// tick, so buckets routinely hold tens of events at once; carving the
	// initial capacity out of one slab keeps the steady-state schedule
	// path allocation-free instead of paying append growth at every ring
	// position the simulation's clock walks over.
	initialBucketCap = 64
)

// Kernel is the discrete-event scheduler. The zero value is not usable;
// construct with NewKernel.
type Kernel struct {
	now     Time
	seq     uint64
	stopped bool
	steps   uint64
	// MaxSteps guards against runaway simulations (a routing loop would
	// otherwise spin the event loop forever). Zero means no limit.
	MaxSteps uint64

	// OnMessage receives message events scheduled with ScheduleMessage.
	// NewNetwork installs the owning network's arrival path here; a kernel
	// carries at most one network's traffic.
	OnMessage func(src, dst Addr, msg Message)

	ev   []event  // slot arena; queues reference slots by index
	free []uint32 // recycled slots

	count    int // scheduled events, ring + far
	near     int // events currently in the ring
	baseTick int64
	basePos  int                  // ring position of baseTick; always baseTick&bucketMask
	buckets  [numBuckets][]uint32 // per-tick min-heaps ordered by (at, seq)
	occupied [bitmapWords]uint64  // bit per non-empty bucket
	far      []uint32             // min-heap of events with tick >= baseTick+numBuckets
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	k := &Kernel{}
	slab := make([]uint32, numBuckets*initialBucketCap)
	for i := range k.buckets {
		off := i * initialBucketCap
		k.buckets[i] = slab[off : off : off+initialBucketCap]
	}
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Steps returns the number of events executed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return k.count }

// Schedule runs fn after delay of simulated time. A negative delay is a
// programming error and panics; zero schedules for "immediately after the
// current event", preserving causal order. Steady-state Schedule performs
// no heap allocations: the event slot comes from the freelist and queue
// backing arrays retain their capacity.
func (k *Kernel) Schedule(delay Time, fn func()) { k.schedule(delay, transport.Func(fn)) }

// schedule fires ev after delay: Schedule for an Event.
func (k *Kernel) schedule(delay Time, ev transport.Event) {
	if delay < 0 {
		panic(fmt.Sprintf("simnet: negative delay %v", delay))
	}
	k.at(k.now+delay, ev)
}

// At runs fn at the absolute simulated instant t, which must not be in the
// past.
func (k *Kernel) At(t Time, fn func()) { k.at(t, transport.Func(fn)) }

// at fires ev at t: At for an Event.
func (k *Kernel) at(t Time, ev transport.Event) {
	if t < k.now {
		panic(fmt.Sprintf("simnet: scheduling into the past (%v < %v)", t, k.now))
	}
	k.seq++
	s := k.allocSlot()
	k.ev[s] = event{at: t, seq: k.seq, fire: ev}
	k.enqueue(t, s)
}

// ScheduleMessage schedules delivery of msg from src to dst after delay,
// dispatched through OnMessage. Unlike Schedule with a closure, the
// operands ride in the event slot, so the steady-state cost is zero
// allocations — this is the transmission fast path of Network.Send.
func (k *Kernel) ScheduleMessage(delay Time, src, dst Addr, msg Message) {
	if delay < 0 {
		panic(fmt.Sprintf("simnet: negative delay %v", delay))
	}
	if msg == nil {
		panic("simnet: nil message")
	}
	t := k.now + delay
	k.seq++
	s := k.allocSlot()
	k.ev[s] = event{at: t, seq: k.seq, msg: msg, src: src, dst: dst}
	k.enqueue(t, s)
}

// enqueue files slot s, already stamped with time t, into the calendar.
func (k *Kernel) enqueue(t Time, s uint32) {
	k.count++
	if tick := int64(t >> tickShift); tick < k.baseTick+numBuckets {
		// baseTick never exceeds the tick of the event being executed, so
		// t >= now implies tick >= baseTick: the event is inside the window.
		k.pushBucket(int(tick&bucketMask), s)
		k.near++
	} else {
		k.pushFar(s)
	}
}

// Stop makes Run return after the current event completes. Pending events
// stay queued; a subsequent Run resumes them.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in timestamp order until the queue drains, Stop is
// called, or MaxSteps is exceeded (in which case it returns an error
// identifying the overrun — almost always a routing loop).
func (k *Kernel) Run() error {
	k.stopped = false
	for k.count > 0 && !k.stopped {
		if err := k.step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events beyond the deadline remain queued.
func (k *Kernel) RunUntil(deadline Time) error {
	k.stopped = false
	for k.count > 0 && !k.stopped {
		if k.peekTime() > deadline {
			break
		}
		if err := k.step(); err != nil {
			return err
		}
	}
	if k.now < deadline {
		k.now = deadline
	}
	return nil
}

// step pops and executes the earliest event.
func (k *Kernel) step() error {
	s := k.popMin()
	e := &k.ev[s]
	at, fire := e.at, e.fire
	msg, src, dst := e.msg, e.src, e.dst
	e.fire = nil // release the event before recycling the slot
	e.msg = nil
	k.free = append(k.free, s)
	k.now = at
	k.steps++
	if k.MaxSteps > 0 && k.steps > k.MaxSteps {
		return fmt.Errorf("simnet: exceeded %d events at t=%v (likely a message loop)", k.MaxSteps, k.now)
	}
	if msg != nil {
		k.OnMessage(src, dst, msg)
		return nil
	}
	fire.Fire()
	return nil
}

// --- queue internals --------------------------------------------------------

// less orders events by (at, seq): the same total order the pre-calendar
// binary heap used, so execution order is bit-for-bit unchanged.
func (k *Kernel) less(a, b uint32) bool {
	ea, eb := &k.ev[a], &k.ev[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (k *Kernel) allocSlot() uint32 {
	if n := len(k.free); n > 0 {
		s := k.free[n-1]
		k.free = k.free[:n-1]
		return s
	}
	k.ev = append(k.ev, event{})
	return uint32(len(k.ev) - 1)
}

// peekTime returns the timestamp of the earliest queued event. count must
// be > 0. It does not move the window.
func (k *Kernel) peekTime() Time {
	if k.near > 0 {
		pos := k.nextOccupied(k.basePos)
		return k.ev[k.buckets[pos][0]].at
	}
	return k.ev[k.far[0]].at
}

// popMin removes and returns the slot of the earliest event, sliding the
// window forward as needed. count must be > 0.
func (k *Kernel) popMin() uint32 {
	if k.near == 0 {
		// Jump the window to the earliest far event's tick and pull every
		// far event the new window covers into the ring.
		k.baseTick = int64(k.ev[k.far[0]].at >> tickShift)
		k.basePos = int(k.baseTick & bucketMask)
		k.migrateFar()
	}
	pos := k.nextOccupied(k.basePos)
	if pos != k.basePos {
		// Advance baseTick by the ring distance walked. Every ring event's
		// tick is >= baseTick, so skipped buckets stay empty for the
		// current window and the slide is safe.
		d := int64(pos-k.basePos) & bucketMask
		k.baseTick += d
		k.basePos = pos
		k.migrateFar()
		// Migration can only add events at or after the new base tick, so
		// pos still indexes the minimum's bucket.
	}
	s := k.popBucket(pos)
	k.near--
	k.count--
	return s
}

// migrateFar moves far-heap events the current window now covers into the
// ring. The window only slides forward, so each event migrates at most
// once.
func (k *Kernel) migrateFar() {
	horizon := k.baseTick + numBuckets
	for len(k.far) > 0 {
		s := k.far[0]
		tick := int64(k.ev[s].at >> tickShift)
		if tick >= horizon {
			return
		}
		k.popFar()
		k.pushBucket(int(tick&bucketMask), s)
		k.near++
	}
}

// nextOccupied returns the first non-empty bucket at or cyclically after
// pos. near must be > 0.
func (k *Kernel) nextOccupied(pos int) int {
	word, bit := pos>>6, pos&63
	if w := k.occupied[word] >> bit; w != 0 {
		return pos + bits.TrailingZeros64(w)
	}
	for i := 1; i <= bitmapWords; i++ {
		w := k.occupied[(word+i)&(bitmapWords-1)]
		if w != 0 {
			return ((word+i)&(bitmapWords-1))<<6 + bits.TrailingZeros64(w)
		}
	}
	panic("simnet: near count positive but no occupied bucket")
}

// pushBucket heap-inserts slot s into bucket pos.
func (k *Kernel) pushBucket(pos int, s uint32) {
	b := k.buckets[pos]
	if len(b) == 0 {
		k.occupied[pos>>6] |= 1 << (pos & 63)
	}
	b = append(b, s)
	// Sift up.
	i := len(b) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(b[i], b[parent]) {
			break
		}
		b[i], b[parent] = b[parent], b[i]
		i = parent
	}
	k.buckets[pos] = b
}

// popBucket removes and returns the minimum slot of bucket pos.
func (k *Kernel) popBucket(pos int) uint32 {
	b := k.buckets[pos]
	s := b[0]
	n := len(b) - 1
	b[0] = b[n]
	b = b[:n]
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && k.less(b[r], b[l]) {
			m = r
		}
		if !k.less(b[m], b[i]) {
			break
		}
		b[i], b[m] = b[m], b[i]
		i = m
	}
	k.buckets[pos] = b
	if n == 0 {
		k.occupied[pos>>6] &^= 1 << (pos & 63)
	}
	return s
}

// pushFar heap-inserts slot s into the far-future heap.
func (k *Kernel) pushFar(s uint32) {
	k.far = append(k.far, s)
	i := len(k.far) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(k.far[i], k.far[parent]) {
			break
		}
		k.far[i], k.far[parent] = k.far[parent], k.far[i]
		i = parent
	}
}

// popFar removes the minimum slot of the far-future heap.
func (k *Kernel) popFar() {
	n := len(k.far) - 1
	k.far[0] = k.far[n]
	k.far = k.far[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && k.less(k.far[r], k.far[l]) {
			m = r
		}
		if !k.less(k.far[m], k.far[i]) {
			break
		}
		k.far[i], k.far[m] = k.far[m], k.far[i]
		i = m
	}
}
