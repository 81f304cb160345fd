package simnet

import (
	"fmt"
	"time"

	"tap/internal/rng"
	"tap/internal/transport"
)

// Addr is a network address — the simulator's stand-in for an IP address.
// Addresses are small dense integers so the link model can hash pairs
// cheaply; address 0 is valid. The type (like Message, Handler, and Time)
// is the shared transport-seam primitive: simnet re-exports it so the
// simulator and the real TCP transport speak one vocabulary.
type Addr = transport.Addr

// NoAddr marks "no address known", used by IP-hint fields in optimized
// tunnel messages.
const NoAddr = transport.NoAddr

// Message is anything deliverable over the simulated network. SizeBytes
// drives the serialization delay; implementations report their wire size
// rather than actually marshaling on the hot path.
type Message = transport.Message

// Handler receives messages addressed to a node. Deliver is invoked by
// the event loop when a message arrives; implementations run synchronously
// on the event loop and must schedule, not block.
type Handler = transport.Handler

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc = transport.HandlerFunc

// LinkModel computes per-hop delays.
type LinkModel struct {
	// MinLatency and MaxLatency bound the uniformly distributed pairwise
	// propagation delay. The paper uses 1 ms and 230 ms.
	MinLatency, MaxLatency time.Duration
	// BandwidthBitsPerSec is the per-link throughput; the paper uses
	// 1.5 Mb/s. Zero disables serialization delay.
	BandwidthBitsPerSec int64
	// Seed roots the deterministic pairwise latency function.
	Seed uint64
}

// DefaultLinkModel returns the paper's evaluation parameters.
func DefaultLinkModel(seed uint64) LinkModel {
	return LinkModel{
		MinLatency:          1 * time.Millisecond,
		MaxLatency:          230 * time.Millisecond,
		BandwidthBitsPerSec: 1_500_000,
		Seed:                seed,
	}
}

// Latency returns the propagation delay of the (a, b) link. It is
// symmetric and stable for the lifetime of the model.
func (m LinkModel) Latency(a, b Addr) time.Duration {
	if a == b {
		return 0
	}
	lo := int(m.MinLatency / time.Millisecond)
	hi := int(m.MaxLatency / time.Millisecond)
	ms := rng.PairwiseMs(m.Seed, uint64(a), uint64(b), lo, hi)
	return time.Duration(ms) * time.Millisecond
}

// Serialization returns the time to clock size bytes onto a link.
func (m LinkModel) Serialization(size int) time.Duration {
	if m.BandwidthBitsPerSec <= 0 || size <= 0 {
		return 0
	}
	bits := int64(size) * 8
	return time.Duration(bits * int64(time.Second) / m.BandwidthBitsPerSec)
}

// HopDelay is the full store-and-forward delay of one hop: serialization
// followed by propagation.
func (m LinkModel) HopDelay(a, b Addr, size int) time.Duration {
	return m.Serialization(size) + m.Latency(a, b)
}

// Stats counts network-level activity for an experiment run.
type Stats struct {
	MessagesSent        uint64
	MessagesDelivered   uint64
	MessagesDropped     uint64 // destination dead or down at delivery time
	MessagesLost        uint64 // lost in transit or sent by a crashed node (FaultPlan)
	MessagesPartitioned uint64 // lost crossing an active partition boundary
	LatencySpikes       uint64 // transmissions delayed by a FaultPlan spike
	BytesSent           uint64
}

// Network binds the kernel, the link model, and the attached nodes.
type Network struct {
	Kernel *Kernel
	Link   LinkModel
	Stats  Stats

	handlers []Handler // indexed by Addr; nil = detached
	// DropHook, when non-nil, observes messages dropped because the
	// destination was detached. Tunnel forwarding uses it in tests to
	// assert loss behaviour.
	DropHook func(from, to Addr, msg Message)
	// SendHook, when non-nil, observes every transmission at send time —
	// the wire-level tap traffic-analysis tests use.
	SendHook func(from, to Addr, msg Message)
	// ExtraDelay, when non-nil, returns additional in-transit delay for a
	// transmission that will otherwise be delivered — the adversarial
	// reordering hook the simulation checker uses to race retransmissions
	// against originals. It runs after fault handling, so lost messages
	// never reach it. Negative returns are clamped to zero.
	ExtraDelay func(src, dst Addr, msg Message) Time

	// UplinkContention, when set, serializes each node's outgoing
	// transmissions: a second send from the same node cannot begin
	// clocking bits until the first finishes serializing. Off by default
	// (the paper's model, where concurrent transfers do not interact);
	// flows that overlap in time are more faithful with it on.
	UplinkContention bool
	uplinkFree       map[Addr]Time // next instant each uplink is idle

	// faults is the installed FaultPlan state; nil means a fault-free
	// network (the default).
	faults *faultState

	// partitions holds the active partitions by id, cut and healed at
	// runtime with StartPartition and HealPartition.
	partitions map[int]*partition
	nextPartID int
}

// partition is one active cut: a member set separated from the rest.
type partition struct {
	members map[Addr]bool
	asym    bool
}

// NewNetwork returns a network with capacity for n addresses. The network
// claims the kernel's message-delivery hook; a kernel carries at most one
// network's traffic.
func NewNetwork(k *Kernel, link LinkModel, n int) *Network {
	net := &Network{
		Kernel:   k,
		Link:     link,
		handlers: make([]Handler, n),
	}
	k.OnMessage = net.arrive
	return net
}

// Attach binds handler to addr. Attaching over a live handler is a
// programming error.
func (n *Network) Attach(addr Addr, h Handler) {
	if n.handlers[addr] != nil {
		panic(fmt.Sprintf("simnet: address %d already attached", addr))
	}
	n.handlers[addr] = h
}

// Detach removes the node at addr, modeling a crash or departure. Messages
// in flight toward it are dropped on arrival. Detaching an address that
// was never attached (e.g. a joiner beyond the allocated space) is a
// no-op.
func (n *Network) Detach(addr Addr) {
	if int(addr) < 0 || int(addr) >= len(n.handlers) {
		return
	}
	n.handlers[addr] = nil
	// A crashed node's uplink dies with it: a later restart at this
	// address must not inherit the stale uplink-busy horizon.
	delete(n.uplinkFree, addr)
}

// Attached reports whether addr currently has a live handler.
func (n *Network) Attached(addr Addr) bool {
	return int(addr) >= 0 && int(addr) < len(n.handlers) && n.handlers[addr] != nil
}

// Grow extends the address space to hold at least n addresses, for
// experiments that add nodes after construction.
func (n *Network) Grow(size int) {
	for len(n.handlers) < size {
		n.handlers = append(n.handlers, nil)
	}
}

// Send schedules delivery of msg from src to dst after the link's
// store-and-forward delay. Sending from a detached source is allowed (the
// source may have crashed between scheduling and execution); sending to a
// detached destination consumes network resources and is counted as a drop
// at delivery time, matching a real network where the sender cannot know.
func (n *Network) Send(src, dst Addr, msg Message) {
	if n.SendHook != nil {
		n.SendHook(src, dst, msg)
	}
	n.Stats.MessagesSent++
	n.Stats.BytesSent += uint64(msg.SizeBytes())
	if n.faults != nil && n.faults.down[src] {
		// A node inside a crash window transmits nothing.
		n.Stats.MessagesLost++
		return
	}
	if len(n.partitions) > 0 && n.Partitioned(src, dst) {
		// The transmission would cross a severed boundary; the bits never
		// arrive. Checked at send time: messages already in flight when a
		// partition starts are considered to have cleared the cut.
		n.Stats.MessagesPartitioned++
		return
	}
	var delay Time
	if n.UplinkContention {
		if n.uplinkFree == nil {
			n.uplinkFree = make(map[Addr]Time)
		}
		start := n.Kernel.Now()
		if free := n.uplinkFree[src]; free > start {
			start = free
		}
		txEnd := start + n.Link.Serialization(msg.SizeBytes())
		n.uplinkFree[src] = txEnd
		delay = txEnd + n.Link.Latency(src, dst) - n.Kernel.Now()
	} else {
		delay = n.Link.HopDelay(src, dst, msg.SizeBytes())
	}
	if n.faults != nil {
		// Loss is drawn after the uplink bookkeeping: the bits were
		// clocked onto the wire and vanished in transit.
		extra, lost := n.faults.applyFaults(&n.Stats, src, dst)
		if lost {
			return
		}
		delay += extra
	}
	if n.ExtraDelay != nil {
		if extra := n.ExtraDelay(src, dst, msg); extra > 0 {
			delay += extra
		}
	}
	n.Kernel.ScheduleMessage(delay, src, dst, msg)
}

// arrive executes one message-delivery event: the in-flight transmission
// reaches dst. Handlers and crash windows are consulted at arrival time,
// matching a real network where the sender cannot know the destination's
// fate when the bits leave.
func (n *Network) arrive(src, dst Addr, msg Message) {
	h := n.handlers[dst]
	if h == nil || (n.faults != nil && n.faults.down[dst]) {
		n.Stats.MessagesDropped++
		if n.DropHook != nil {
			n.DropHook(src, dst, msg)
		}
		return
	}
	n.Stats.MessagesDelivered++
	h.Deliver(src, msg)
}

// Now exposes the kernel clock, saving callers a dereference.
func (n *Network) Now() Time { return n.Kernel.Now() }

// Schedule files ev onto the kernel's event queue after delay, satisfying
// transport.Clock without handing callers the whole kernel.
func (n *Network) Schedule(delay Time, ev transport.Event) { n.Kernel.schedule(delay, ev) }

// The simulated network is the deterministic Transport implementation;
// this assertion is the contract that it keeps satisfying the seam.
var _ transport.Transport = (*Network)(nil)

// --- partitions -------------------------------------------------------------

// StartPartition severs the member set from the rest of the network and
// returns a handle for HealPartition. Traffic among members, and among
// non-members, is unaffected. Self-addressed messages never cross a link
// and are always exempt.
//
// Symmetric (asym false): any transmission crossing the boundary — in
// either direction — is lost, modeling a clean network split.
//
// Asymmetric (asym true): only traffic INTO the member set is lost;
// members can still transmit outward. This models one-way link failure
// (e.g. a broken return path), where a member's sends arrive but every
// reply, ACK, and probe echo addressed back to it vanishes.
func (n *Network) StartPartition(members []Addr, asym bool) int {
	p := &partition{members: make(map[Addr]bool, len(members)), asym: asym}
	for _, a := range members {
		p.members[a] = true
	}
	if n.partitions == nil {
		n.partitions = make(map[int]*partition)
	}
	id := n.nextPartID
	n.nextPartID++
	n.partitions[id] = p
	return id
}

// HealPartition removes a partition previously started with
// StartPartition. Healing an unknown or already-healed id is a no-op.
func (n *Network) HealPartition(id int) {
	delete(n.partitions, id)
}

// PartitionActive reports whether any partition is currently in force.
func (n *Network) PartitionActive() bool { return len(n.partitions) > 0 }

// Partitioned reports whether a transmission from src to dst would be
// lost to an active partition.
func (n *Network) Partitioned(src, dst Addr) bool {
	if src == dst {
		return false
	}
	for _, p := range n.partitions {
		srcIn, dstIn := p.members[src], p.members[dst]
		if srcIn == dstIn {
			continue // both sides of the same boundary
		}
		if p.asym {
			if dstIn {
				return true // inbound traffic to a member is cut
			}
			continue // outbound from a member still flows
		}
		return true
	}
	return false
}
