// Package transport defines the seam between TAP's protocol engines and
// the medium that carries their messages.
//
// Everything above this package — the tunnel engine, the tunnel pools,
// windowed streams — is written against the
// Transport and Clock interfaces here, never against a concrete network.
// Two implementations exist:
//
//   - internal/simnet.Network, the deterministic discrete-event emulator,
//     where Time is a simulated clock and Schedule files events into the
//     calendar queue;
//   - internal/transport/tcptransport, which frames messages over real
//     TCP connections between OS processes, where Time is the wall clock
//     and Schedule arms real timers.
//
// The contract both implementations honor, and engines rely on:
//
//   - Handlers and scheduled events run serialized on a single logical
//     event loop. An engine never observes two callbacks concurrently, so
//     engine state needs no locking of its own. (State an *application*
//     shares across goroutines — a tunnel's hints, refreshed outside the
//     loop — still locks itself; see core.Tunnel's link.)
//   - Send is asynchronous and unreliable: delivery may fail silently
//     (crashed destination, severed link, refused connection). Loss
//     recovery belongs to the layers above.
//   - Time flows only through Clock. Engines must never read the wall
//     clock directly, or simulated and real time could silently mix in
//     one binary; core enforces this with a static audit test.
package transport

import "time"

// Addr is a transport-level address: a small dense integer naming one
// attachment point. The simulator uses it directly as the node index; the
// TCP transport maps it to a host:port through its peer table. Address 0
// is valid.
type Addr int

// NoAddr marks "no address known", used by IP-hint fields in optimized
// tunnel messages.
const NoAddr Addr = -1

// Time is an instant on the transport's clock, expressed as the duration
// since the transport's epoch (simulation start, or process start for the
// TCP transport).
type Time = time.Duration

// Message is anything deliverable over a transport. SizeBytes reports the
// wire size without marshaling; the simulator charges serialization delay
// from it, and the TCP transport sanity-checks encodings against it.
type Message interface {
	SizeBytes() int
}

// Handler receives messages addressed to an attachment point. from is the
// immediate network-level sender (the previous hop, not the originator).
// Deliver runs on the transport's event loop and must schedule, not block.
//
// Who owns msg differs by medium. On simnet the handler owns it. On
// tcptransport msg is lent for the call — its bytes may lie in the
// connection's read buffer, which the next frame overwrites — so what a
// handler keeps past Deliver it copies.
type Handler interface {
	Deliver(from Addr, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from Addr, msg Message)

// Deliver calls f.
func (f HandlerFunc) Deliver(from Addr, msg Message) { f(from, msg) }

// Event is what a Clock runs when a timer expires. A value with state of
// its own — a send window, say — is its own event, so arming its timer
// builds no closure; a plain callback is scheduled as a Func.
type Event interface {
	Fire()
}

// Func adapts a function to the Event interface. A func value fits in an
// interface word, so the conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Clock is the only source of time and timers available to protocol
// engines.
type Clock interface {
	// Now returns the current instant on this transport's clock.
	Now() Time
	// Schedule fires ev after delay, serialized with message deliveries on
	// the transport's event loop. A delay of zero means "as soon as
	// possible, after the current callback returns".
	Schedule(delay Time, ev Event)
}

// Transport carries messages between addresses and owns the clock they
// are timestamped against.
type Transport interface {
	Clock

	// Send schedules delivery of msg from src to dst. It never blocks and
	// never reports failure: a dead destination, a severed link, or a
	// refused connection all surface only as silence.
	Send(src, dst Addr, msg Message)

	// Attach binds h to addr; attaching over a live handler is a
	// programming error. Detach removes the binding (a crash or
	// departure); detaching an unknown address is a no-op. Attached
	// reports whether addr currently has a live handler.
	Attach(addr Addr, h Handler)
	Detach(addr Addr)
	Attached(addr Addr) bool

	// Reachable reports whether a connection attempt to addr would
	// succeed right now — what a sender dialing a cached address hint can
	// observe. It says nothing about whether the node behind the address
	// still serves any particular role.
	Reachable(addr Addr) bool

	// Grow extends the address space to hold at least n addresses, for
	// deployments that add nodes after construction. Implementations with
	// an unbounded address space treat it as a no-op.
	Grow(n int)
}
