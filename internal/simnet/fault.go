package simnet

import (
	"time"

	"tap/internal/rng"
)

// FaultPlan describes the adverse conditions a simulation runs under:
// probabilistic per-message link loss, latency spikes, and scheduled node
// crash/restart windows. A plan is installed once with
// Network.InstallFaults and applied inside Network.Send, so every
// experiment can run under identical, reproducible faults without bespoke
// harness code. All randomness derives from Seed and is drawn in event
// order on the single-threaded kernel, so the same plan over the same
// workload yields bit-identical schedules. Partitions are cut and healed
// directly with Network.StartPartition and HealPartition.
type FaultPlan struct {
	// Seed roots the fault stream (loss and spike draws).
	Seed uint64

	// LossRate is the probability that any one transmission is lost in
	// transit: the bits leave the sender's uplink but never arrive.
	// Local (self-addressed) deliveries are exempt — they never cross a
	// link.
	LossRate float64

	// SpikeRate is the probability a transmission suffers an additional
	// latency spike, drawn uniformly from [SpikeMin, SpikeMax] — a
	// transient congestion event on top of the link model's stable
	// pairwise latency.
	SpikeRate float64
	SpikeMin  time.Duration
	SpikeMax  time.Duration

	// Crashes schedules node down-windows. While down, a node transmits
	// nothing and everything addressed to it is dropped on arrival, but
	// its handler stays attached: when the window ends the address is
	// reachable again (possibly as a "zombie" whose overlay node is
	// dead — exactly the stale-hint hazard the reliability layer must
	// survive).
	Crashes []CrashWindow

	// OnCrash, when non-nil, runs as each crash window opens — e.g. an
	// experiment fails the overlay node so THA replicas migrate (the
	// paper's anchor failover).
	OnCrash func(Addr)
}

// CrashWindow is one scheduled outage: the node at Addr is down from At
// until Restart. Restart <= At means the node never comes back.
type CrashWindow struct {
	Addr    Addr
	At      Time
	Restart Time
}

// faultState is the installed plan plus its runtime state.
type faultState struct {
	plan   *FaultPlan
	stream *rng.Stream
	down   map[Addr]bool
}

// InstallFaults installs plan on the network and schedules its crash
// windows on the kernel. Call it before running the kernel (window starts
// must not be in the past). A nil plan clears fault injection (but leaves
// any started partitions in place).
func (n *Network) InstallFaults(plan *FaultPlan) {
	if plan == nil {
		n.faults = nil
		return
	}
	fs := &faultState{
		plan:   plan,
		stream: rng.New(plan.Seed),
		down:   make(map[Addr]bool),
	}
	n.faults = fs
	for _, w := range plan.Crashes {
		w := w
		n.Kernel.At(w.At, func() {
			fs.down[w.Addr] = true
			if plan.OnCrash != nil {
				plan.OnCrash(w.Addr)
			}
		})
		if w.Restart > w.At {
			n.Kernel.At(w.Restart, func() { delete(fs.down, w.Addr) })
		}
	}
}

// Down reports whether addr is inside a crash window right now.
func (n *Network) Down(addr Addr) bool {
	return n.faults != nil && n.faults.down[addr]
}

// Reachable reports whether a connection attempt to addr would succeed:
// the address has a live handler and is not inside a crash window. This is
// what a sender dialing a cached address hint can observe (the connection
// is refused or times out); it says nothing about whether the node behind
// it still serves any particular role.
func (n *Network) Reachable(addr Addr) bool {
	return n.Attached(addr) && !n.Down(addr)
}

// applyFaults runs the send-side fault draws for one transmission and
// reports whether the message survives, along with any extra delay.
// Self-addressed messages never cross a link and are exempt from loss and
// spikes (a crashed source is handled by the caller).
func (fs *faultState) applyFaults(stats *Stats, src, dst Addr) (extra Time, lost bool) {
	if src == dst {
		return 0, false
	}
	p := fs.plan
	if p.LossRate > 0 && fs.stream.Bool(p.LossRate) {
		stats.MessagesLost++
		return 0, true
	}
	if p.SpikeRate > 0 && fs.stream.Bool(p.SpikeRate) {
		lo := int(p.SpikeMin / time.Millisecond)
		hi := int(p.SpikeMax / time.Millisecond)
		if hi < lo {
			hi = lo
		}
		stats.LatencySpikes++
		return Time(fs.stream.DurationRangeMs(lo, hi)) * Time(time.Millisecond), false
	}
	return 0, false
}
