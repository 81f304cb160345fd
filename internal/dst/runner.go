package dst

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"tap/internal/core"
	"tap/internal/experiments"
	"tap/internal/id"
	"tap/internal/past"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
)

// Canary is the plaintext marker every dst payload starts with: the
// no-plaintext-on-wire checker scans each frame's exposed bytes for it.
// Sixteen bytes make an accidental match in honest ciphertext
// negligible (~2^-128 per position).
var Canary = []byte("TAP-DST-CANARY!!")

// Mutations are deliberately planted bugs. Each checker's mutation
// self-test proves the checker fires on its bug within a bounded seed
// budget; a checker that cannot catch its plant is itself broken.
type Mutations struct {
	// SkipMigration disables replica migration on membership changes:
	// the tha-replication invariant must notice replica sets drifting
	// from the oracle.
	SkipMigration bool
	// CorruptLeaf empties one live node's leaf set after the first
	// membership event: the leafset invariant must notice.
	CorruptLeaf bool
	// DropOnionLayer builds each send's envelope with one onion layer
	// missing (the envelope is addressed to hop 0 but sealed for hop 1)
	// and sends it fire-and-forget: the tag fails at the first hop, and
	// the tunnel-liveness invariant must notice a functional tunnel that
	// stopped delivering.
	DropOnionLayer bool
	// LeakPayload sends the raw payload in place of the sealed onion,
	// fire-and-forget: the no-plaintext invariant must see the canary on
	// the wire.
	LeakPayload bool
	// DisableAckDedup plants core.NetEngine.DisableAckDedup: a message's
	// receiver forgets it finished the message's stream, so a late
	// duplicate opens a new stream and is delivered again, and the
	// exactly-once invariant must count more than one fresh delivery on
	// some message.
	DisableAckDedup bool
	// StallRebuild hands every tunnel pool a rebuild limiter of its own
	// that admits nothing: dead slots never refill, and the
	// pool-reconverge invariant must notice a pool below target size
	// after the repair horizon.
	StallRebuild bool
	// UncappedRebuild hands every tunnel pool an unbounded rebuild
	// limiter of its own in place of the shared one: rebuilds skip the
	// rate limit, and the rebuild-rate invariant, which audits the shared
	// limiter, must notice rebuilds it never admitted.
	UncappedRebuild bool
	// StreamReorderBypass plants core.NetEngine.StreamReorderBypass:
	// stream receivers hand segments to the application in raw arrival
	// order with no reorder buffer and no dedup, and the
	// stream-in-order-delivery invariant must notice the first
	// out-of-order or duplicate delivery.
	StreamReorderBypass bool
	// StreamWindowBypass opens every stream with four times the window
	// its streamRec records, so senders overfill the window the scenario
	// asked for, and the window-conservation invariant must notice more
	// unacknowledged segments in flight than that window allows.
	StreamWindowBypass bool
}

// Plants is the one table of planted bugs: the name cmd/tapcheck's -mutate
// takes, what Run plants, the profile whose scenarios exercise it, and the
// checker that must catch it (the mutation self-tests hold each row to that).
var Plants = []struct {
	Name      string
	Mutations Mutations
	Profile   Profile
	Checker   string
}{
	{"skip-migration", Mutations{SkipMigration: true}, ProfileStorage, "tha-replication"},
	{"corrupt-leaf", Mutations{CorruptLeaf: true}, ProfileMembership, "leafset"},
	{"drop-onion-layer", Mutations{DropOnionLayer: true}, ProfileFull, "tunnel-liveness"},
	{"leak-payload", Mutations{LeakPayload: true}, ProfileFull, "no-plaintext"},
	{"disable-ack-dedup", Mutations{DisableAckDedup: true}, ProfileFull, "exactly-once"},
	{"stall-rebuild", Mutations{StallRebuild: true}, ProfilePool, "pool-reconverge"},
	{"uncapped-rebuild", Mutations{UncappedRebuild: true}, ProfilePool, "rebuild-rate"},
	{"stream-reorder-bypass", Mutations{StreamReorderBypass: true}, ProfileStream, "stream-in-order-delivery"},
	{"stream-window-bypass", Mutations{StreamWindowBypass: true}, ProfileStream, "window-conservation"},
}

// Violation is one invariant failure, attributed to the schedule event
// during (or after) which it was detected. Event is -1 for violations
// found at quiescence, after the schedule drained.
type Violation struct {
	Checker string      `json:"checker"`
	Event   int         `json:"event"`
	At      simnet.Time `json:"at"`
	Msg     string      `json:"msg"`
}

func (v *Violation) String() string {
	where := fmt.Sprintf("event %d", v.Event)
	if v.Event < 0 {
		where = "quiescence"
	}
	return fmt.Sprintf("[%s] at %s (t=%v): %s", v.Checker, where, v.At, v.Msg)
}

// Result reports one scenario execution.
type Result struct {
	Scenario  *Scenario
	Violation *Violation // nil: all invariants held
	Err       error      // infrastructure failure (not an invariant violation)

	Delivered int    // flows that completed with delivery
	Failed    int    // flows that resolved undelivered
	Skipped   int    // schedule events inapplicable to current state
	Steps     uint64 // kernel events executed
}

// reliabilityBudget is each message's transmission budget: generous, so
// every message resolves before quiescence even under the worst generated
// loss rate.
const reliabilityBudget = 12

// poolRepairBudget is how long after the last schedule event (or the
// last partition heal, whichever is later) tunnel pools keep running
// before the runner stops them so the kernel can drain. It must cover a
// full worst-case repair: rate-limited rebuild admissions for every dead
// slot plus the promotion hysteresis — the pool-reconverge invariant
// demands pools be back at target size by this deadline.
const poolRepairBudget = 120 * time.Second

// poolRebuildRate and poolRebuildBurst parameterize the rebuild
// admission limiter shared by every pool in a scenario. Slow enough
// that a rebuild storm is visibly over budget, fast enough that honest
// repairs finish within poolRepairBudget.
const (
	poolRebuildRate  = 0.05
	poolRebuildBurst = 3
)

// minLiveFloor is the smallest live population failures may leave; it
// keeps replica sets meaningful and the overlay far from its
// refuse-to-kill-the-last-node edge.
const minLiveFloor = 8

// flowRec tracks one EvSend: a reliable message, or under a traffic plant
// a fire-and-forget flow.
type flowRec struct {
	tunnel  *core.Tunnel
	outcome core.Outcome
	// outcomes counts completion callbacks (must be exactly 1); fresh
	// counts a message's deliveries to the application.
	outcomes, fresh int
}

// poolSendRec tracks one pool send's resolution. Pool flows are built
// inside the pool (the engine flow id never surfaces), so they get their
// own record kind; the outcome callback contract — exactly one firing —
// is checked at quiescence like any flow's.
type poolSendRec struct {
	outcome  core.Outcome
	outcomes int
}

// streamRec tracks one windowed stream end to end: the sender handle (for
// the window observables and the final outcome), the exact bytes pumped
// in, and the receive-side delivery discipline — next expected sequence
// number, bytes matched against the sent content, close and completion
// callback counts. The in-order and byte-identity checks run
// synchronously in the OnData hook; quiescence checkers audit the rest.
type streamRec struct {
	s       *core.Stream
	content []byte
	window  int // the window the scenario asked for

	nextSeq     uint64 // next data sequence number the receiver must deliver
	recvOff     int    // content bytes matched so far
	closes      int
	completions int
}

type client struct {
	in      *core.Initiator
	tunnels []*core.Tunnel
	pool    *core.TunnelPool
}

// runner is the per-execution world state.
type runner struct {
	sc  *Scenario
	mut Mutations

	root    *rng.Stream
	traffic *rng.Stream
	kernel  *simnet.Kernel
	net     *simnet.Network
	ov      *pastry.Overlay
	mgr     *past.Manager
	dir     *tha.Directory
	svc     *core.Service
	eng     *core.NetEngine

	clients   []*client
	protected map[simnet.Addr]bool

	// anchors lists every deployed hopid in first-replication order — a
	// deterministic iteration order for the tha-replication checker
	// (Manager's own maps iterate nondeterministically).
	anchors    []id.ID
	anchorSeen map[id.ID]struct{}

	flows     map[uint64]*flowRec
	poolSends []*poolSendRec

	// streams tracks windowed streams by stream id; streamIDs is the
	// insertion (= ascending id) order quiescence checkers iterate in.
	streams   map[uint64]*streamRec
	streamIDs []uint64

	// limiter is the rebuild admission control shared by every pool in
	// the scenario; the rebuild-rate invariant audits it.
	limiter *core.RateLimiter
	// hasPartitions notes whether the schedule contains partition events:
	// under partitions the tunnel-liveness delivery clause is undecidable
	// (a flow can exhaust while every hop anchor keeps a live replica).
	hasPartitions bool

	lastEvent     int
	violation     *Violation
	skipped       int
	payloadSeq    uint64
	leafCorrupted bool
}

// Run executes the scenario with the given planted bugs (zero Mutations
// for an honest run) and reports the first invariant violation, if any.
// It is deterministic: equal inputs produce equal Results field by field.
func Run(sc *Scenario, mut Mutations) *Result {
	r := &runner{
		sc: sc, mut: mut,
		root:       rng.New(sc.Seed),
		protected:  make(map[simnet.Addr]bool),
		anchorSeen: make(map[id.ID]struct{}),
		flows:      make(map[uint64]*flowRec),
		streams:    make(map[uint64]*streamRec),
		lastEvent:  -1,
	}
	r.traffic = r.root.Split("traffic")
	res := &Result{Scenario: sc}

	if err := r.build(); err != nil {
		res.Err = err
		return res
	}
	for i, ev := range sc.Events {
		i, ev := i, ev
		r.kernel.At(ev.At, func() {
			if r.violation != nil {
				return
			}
			r.lastEvent = i
			r.apply(ev)
			if r.violation == nil {
				r.runCheckers(i, false)
			}
			if r.violation != nil {
				r.kernel.Stop()
			}
		})
	}
	r.schedulePoolStop()
	if err := r.kernel.Run(); err != nil {
		res.Err = fmt.Errorf("dst: seed %d: %w", sc.Seed, err)
		return res
	}
	if r.violation == nil {
		r.lastEvent = -1
		r.runCheckers(-1, true)
	}

	res.Violation = r.violation
	res.Skipped = r.skipped
	res.Steps = r.kernel.Steps()
	for _, flow := range r.flowOrder() {
		rec := r.flows[flow]
		if rec.outcomes > 0 && rec.outcome.Delivered {
			res.Delivered++
		} else if rec.outcomes > 0 {
			res.Failed++
		}
	}
	for _, rec := range r.poolSends {
		if rec.outcomes > 0 && rec.outcome.Delivered {
			res.Delivered++
		} else if rec.outcomes > 0 {
			res.Failed++
		}
	}
	for _, sid := range r.streamIDs {
		rec := r.streams[sid]
		if rec.completions > 0 && rec.s.Done() {
			res.Delivered++
		} else if rec.completions > 0 {
			res.Failed++
		}
	}
	return res
}

// schedulePoolStop notes partition windows and — when the schedule
// creates tunnel pools — arranges for every pool to stop after the
// repair horizon: the last event or partition heal, plus
// poolRepairBudget. Pools reschedule their own probe ticks forever, so
// without the stop a pool scenario would never drain the kernel; with
// it, quiescence doubles as the reconvergence deadline.
func (r *runner) schedulePoolStop() {
	hasPool := false
	var horizon simnet.Time
	for _, ev := range r.sc.Events {
		end := ev.At
		if ev.Kind == EvPartition {
			r.hasPartitions = true
			end += ev.Dur
		}
		if ev.Kind == EvPool {
			hasPool = true
		}
		if end > horizon {
			horizon = end
		}
	}
	if !hasPool {
		return
	}
	r.kernel.At(horizon+poolRepairBudget, func() {
		for _, c := range r.clients {
			if c.pool != nil {
				c.pool.Stop()
			}
		}
	})
}

// build assembles the world: overlay, storage, directory, network,
// engine, fault plan, reorder hook, wire tap, and clients.
func (r *runner) build() error {
	sc := r.sc
	w, err := experiments.BuildWorld(sc.Nodes, sc.K, r.root)
	if err != nil {
		return fmt.Errorf("dst: building overlay: %w", err)
	}
	ov := w.OV
	r.ov, r.mgr, r.dir, r.svc = ov, w.Mgr, w.Dir, w.Svc
	// Nothing is stored yet, so the hooks see every replication. The hook
	// replaces the world's collusion tracker, which dst does not use.
	r.mgr.DisableMigration = r.mut.SkipMigration
	r.mgr.OnReplicate = func(key id.ID, addr simnet.Addr) {
		if _, ok := r.anchorSeen[key]; !ok {
			r.anchorSeen[key] = struct{}{}
			r.anchors = append(r.anchors, key)
		}
	}

	r.limiter = core.NewRateLimiter(poolRebuildRate, poolRebuildBurst)
	r.kernel, r.net, r.eng = w.NewEngine(sc.Seed)
	r.kernel.MaxSteps = 20_000_000
	r.eng.DisableAckDedup = r.mut.DisableAckDedup
	r.eng.StreamReorderBypass = r.mut.StreamReorderBypass
	r.eng.OnStream = func(rs *core.RecvStream) {
		if msg := r.flows[rs.ID()]; msg != nil {
			// A message: its one payload must reach the application once.
			rs.OnData = func(uint64, []byte) {
				if msg.fresh >= 1 {
					r.violate("exactly-once", fmt.Sprintf(
						"flow %d delivered fresh to the terminal %d times", rs.ID(), msg.fresh+1))
				}
				msg.fresh++
			}
			return
		}
		rec := r.streams[rs.ID()]
		if rec == nil {
			return
		}
		rs.OnData = func(seq uint64, data []byte) {
			// Synchronous delivery discipline: strictly in-order sequence
			// numbers carrying exactly the bytes the sender wrote there.
			if seq != rec.nextSeq {
				r.violate("stream-in-order-delivery", fmt.Sprintf(
					"stream %d delivered seq %d to the application, expected %d",
					rs.ID(), seq, rec.nextSeq))
				return
			}
			rec.nextSeq++
			rest := rec.content[rec.recvOff:]
			if len(data) > len(rest) || !bytes.Equal(data, rest[:len(data)]) {
				r.violate("stream-in-order-delivery", fmt.Sprintf(
					"stream %d delivered bytes diverging from the sent content at offset %d",
					rs.ID(), rec.recvOff))
				return
			}
			rec.recvOff += len(data)
		}
		rs.OnClose = func(rs *core.RecvStream) { rec.closes++ }
	}

	if sc.Loss > 0 || sc.Spike > 0 {
		r.net.InstallFaults(&simnet.FaultPlan{
			Seed:      r.root.Split("faults").Seed(),
			LossRate:  sc.Loss,
			SpikeRate: sc.Spike,
			SpikeMin:  50 * time.Millisecond,
			SpikeMax:  400 * time.Millisecond,
		})
	}
	if sc.Reorder > 0 && sc.ReorderMax > 0 {
		reorder := r.root.Split("reorder")
		r.net.ExtraDelay = func(src, dst simnet.Addr, msg simnet.Message) simnet.Time {
			if reorder.Bool(sc.Reorder) {
				return simnet.Time(reorder.Int63n(int64(sc.ReorderMax)))
			}
			return 0
		}
	}
	r.net.SendHook = func(from, to simnet.Addr, msg simnet.Message) {
		for _, b := range core.WireBytes(msg) {
			if bytes.Contains(b, Canary) {
				r.violate("no-plaintext", fmt.Sprintf(
					"payload canary visible in a frame %d->%d (%d wire bytes)", from, to, len(b)))
				return
			}
		}
	}

	pick := r.root.Split("clients")
	for i := 0; i < sc.Clients; i++ {
		node := ov.RandomLive(pick)
		for r.protected[node.Ref().Addr] {
			node = ov.RandomLive(pick)
		}
		in, err := core.NewInitiator(r.svc, node, r.root.SplitN("client", i))
		if err != nil {
			return fmt.Errorf("dst: client %d: %w", i, err)
		}
		r.protected[node.Ref().Addr] = true
		r.clients = append(r.clients, &client{in: in})
	}
	return nil
}

// violate records the first violation; later ones are ignored (the world
// may already be inconsistent). The kernel is stopped by the caller or
// at the next scheduled event.
func (r *runner) violate(checker, msg string) {
	if r.violation != nil {
		return
	}
	r.violation = &Violation{Checker: checker, Event: r.lastEvent, At: r.kernel.Now(), Msg: msg}
	r.kernel.Stop()
}

// apply executes one schedule event. Events inapplicable to the current
// state (dead victim, empty pool, no tunnels) skip cleanly so the
// shrinker may remove arbitrary prefixes.
func (r *runner) apply(ev Event) {
	switch ev.Kind {
	case EvJoin:
		r.ov.Join()
		r.afterMembership()
	case EvFail:
		addr := r.pickVictim(ev.Addr, 0)
		if addr == simnet.NoAddr {
			r.skipped++
			return
		}
		if err := r.ov.Fail(addr); err != nil {
			r.skipped++
			return
		}
		r.net.Detach(addr)
		r.afterMembership()
	case EvBatchFail:
		victims := make([]simnet.Addr, 0, len(ev.Addrs))
		taken := make(map[simnet.Addr]bool)
		for _, raw := range ev.Addrs {
			addr := r.pickVictimExcluding(raw, len(victims), taken)
			if addr == simnet.NoAddr {
				continue
			}
			taken[addr] = true
			victims = append(victims, addr)
		}
		if len(victims) == 0 {
			r.skipped++
			return
		}
		r.mgr.BeginBatch()
		for _, addr := range victims {
			if err := r.ov.Fail(addr); err == nil {
				r.net.Detach(addr)
			}
		}
		r.mgr.EndBatch()
		r.afterMembership()
	case EvDeploy:
		c := r.client(ev.Client)
		if c == nil {
			r.skipped++
			return
		}
		n := ev.N
		if n <= 0 {
			n = 2
		}
		if err := c.in.DeployDirect(n); err != nil {
			// Deployment against a live overlay cannot fail honestly.
			r.violate("infrastructure", fmt.Sprintf("deploy failed: %v", err))
		}
	case EvForm:
		c := r.client(ev.Client)
		if c == nil {
			r.skipped++
			return
		}
		l := ev.L
		if l < 2 {
			l = 2
		}
		if c.in.PoolSize() < l {
			r.skipped++
			return
		}
		t, err := c.in.FormTunnel(l)
		if err != nil {
			r.skipped++
			return
		}
		c.tunnels = append(c.tunnels, t)
	case EvSend:
		c := r.client(ev.Client)
		if c == nil || len(c.tunnels) == 0 {
			r.skipped++
			return
		}
		r.send(c, c.tunnels[ev.T%len(c.tunnels)], ev)
	case EvPool:
		c := r.client(ev.Client)
		if c == nil || c.pool != nil {
			r.skipped++
			return
		}
		n, l := ev.N, ev.L
		if n <= 0 {
			n = 2
		}
		if l < 2 {
			l = 2
		}
		limiter := r.limiter
		switch {
		case r.mut.StallRebuild:
			limiter = core.NewRateLimiter(0, 0)
		case r.mut.UncappedRebuild:
			limiter = core.NewRateLimiter(math.Inf(1), math.Inf(1))
		}
		pool, err := core.NewTunnelPool(c.in, r.eng, core.PoolConfig{Size: n, Length: l, Limiter: limiter})
		if err != nil {
			// Not enough disjoint anchors under heavy churn is an honest
			// formation failure, not an invariant breach.
			r.skipped++
			return
		}
		c.pool = pool
		pool.Start()
	case EvPartition:
		c := r.client(ev.Client)
		if c == nil || ev.Dur <= 0 {
			r.skipped++
			return
		}
		addr := c.in.Node().Ref().Addr
		pid := r.net.StartPartition([]simnet.Addr{addr}, ev.Asym)
		r.kernel.Schedule(ev.Dur, func() { r.net.HealPartition(pid) })
	case EvStream:
		c := r.client(ev.Client)
		if c == nil {
			r.skipped++
			return
		}
		r.stream(c, ev)
	case EvPoolSend:
		c := r.client(ev.Client)
		if c == nil || c.pool == nil {
			r.skipped++
			return
		}
		payload := r.payload(ev.Size)
		var dest id.ID
		r.traffic.Bytes(dest[:])
		rec := &poolSendRec{}
		if err := c.pool.Send(dest, payload, func(o core.Outcome) {
			rec.outcome = o
			rec.outcomes++
		}); err != nil {
			// A degraded fast-fail is the pool's graceful-degradation
			// contract (e.g. the client is partitioned), not a violation.
			r.skipped++
			return
		}
		r.poolSends = append(r.poolSends, rec)
	default:
		r.skipped++
	}
}

// afterMembership applies the CorruptLeaf plant once, immediately after
// the first successful membership change.
func (r *runner) afterMembership() {
	if !r.mut.CorruptLeaf || r.leafCorrupted {
		return
	}
	r.leafCorrupted = true
	node := r.ov.RandomLive(r.root.Split("corrupt"))
	node.Leaf.ReplaceAll(nil, nil)
}

func (r *runner) client(idx int) *client {
	if len(r.clients) == 0 {
		return nil
	}
	return r.clients[idx%len(r.clients)]
}

// pickVictim resolves a raw selector to a live, unprotected victim by
// scanning the address space from raw mod NumAddrs. pending counts kills
// already chosen in the same batch; the live floor accounts for them.
func (r *runner) pickVictim(raw uint64, pending int) simnet.Addr {
	return r.pickVictimExcluding(raw, pending, nil)
}

func (r *runner) pickVictimExcluding(raw uint64, pending int, taken map[simnet.Addr]bool) simnet.Addr {
	floor := minLiveFloor
	if f := r.sc.K + r.sc.Clients + 2; f > floor {
		floor = f
	}
	if r.ov.Size()-pending <= floor {
		return simnet.NoAddr
	}
	n := r.ov.NumAddrs()
	start := int(raw % uint64(n))
	for i := 0; i < n; i++ {
		addr := simnet.Addr((start + i) % n)
		node := r.ov.Node(addr)
		if node == nil || !node.Alive() || r.protected[addr] || (taken != nil && taken[addr]) {
			continue
		}
		return addr
	}
	return simnet.NoAddr
}

// send starts one reliable message over tun — or, under a traffic plant,
// the plant's broken envelope, fire-and-forget.
func (r *runner) send(c *client, tun *core.Tunnel, ev Event) {
	payload := r.payload(ev.Size)
	var dest id.ID
	r.traffic.Bytes(dest[:])
	origin := c.in.Node().Ref().Addr
	rec := &flowRec{tunnel: tun}
	done := func(o core.Outcome) {
		rec.outcome = o
		rec.outcomes++
	}
	via := tun
	if ev.Hints {
		// Partially refreshed hints (some hop lost) are still usable: a
		// missing one falls back to DHT routing.
		_ = tun.RefreshHints(r.svc)
	} else {
		// A view of the same hops with no hints and no memory of its own:
		// every hop, the first included, is resolved by DHT routing, so the
		// unhinted TAP_basic path stays under test.
		via = &core.Tunnel{Hops: tun.Hops}
	}
	if !r.mut.DropOnionLayer && !r.mut.LeakPayload {
		r.flows[r.eng.SendMessage(origin, via, dest, payload, reliabilityBudget, done)] = rec
		return
	}
	var env *core.Envelope
	var err error
	if r.mut.DropOnionLayer {
		// One layer short: sealed for the sub-tunnel starting at hop 1,
		// but addressed to hop 0, which cannot authenticate it.
		sub := &core.Tunnel{Hops: tun.Hops[1:]}
		if env, err = core.BuildForward(sub, nil, dest, payload, r.traffic); err == nil {
			env.HopID = tun.Hops[0].HopID
		}
	} else {
		env, err = core.BuildForwardHinted(via, dest, payload, r.traffic)
	}
	if err != nil {
		r.skipped++
		return
	}
	if r.mut.LeakPayload {
		env.Sealed = append([]byte(nil), payload...)
	}
	r.flows[r.eng.SendForward(origin, env, done)] = rec
}

// stream opens one windowed stream — over a tunnel when the client has
// any, else the direct overt path — and pumps the event's content through
// the send window.
func (r *runner) stream(c *client, ev Event) {
	size := ev.Size
	if size < 64 {
		size = 64
	}
	content := make([]byte, size)
	r.traffic.Bytes(content)
	var dest id.ID
	r.traffic.Bytes(dest[:])

	cfg := core.StreamConfig{Window: ev.W, SegSize: 256}
	if cfg.Window < 1 {
		cfg.Window = 2
	}
	rec := &streamRec{content: content, window: cfg.Window}
	if r.mut.StreamWindowBypass {
		cfg.Window *= 4
	}
	origin := c.in.Node().Ref().Addr
	var s *core.Stream
	if len(c.tunnels) > 0 {
		tun := c.tunnels[ev.T%len(c.tunnels)]
		_ = tun.RefreshHints(r.svc) // partial is usable, as in send
		s = r.eng.OpenTunnelStream(origin, tun, dest, cfg)
	} else {
		s = r.eng.OpenStream(origin, dest, simnet.NoAddr, cfg)
	}
	rec.s = s
	r.streams[s.ID()] = rec
	r.streamIDs = append(r.streamIDs, s.ID())
	s.OnComplete = func(core.Outcome) { rec.completions++ }
	s.WriteAll(content)
}

// payload builds a canary-prefixed payload of at least size bytes.
func (r *runner) payload(size int) []byte {
	min := len(Canary) + 8
	if size < min {
		size = min
	}
	b := make([]byte, size)
	copy(b, Canary)
	binary.BigEndian.PutUint64(b[len(Canary):], r.payloadSeq)
	r.payloadSeq++
	r.traffic.Bytes(b[min:])
	return b
}

// flowOrder returns flow ids in ascending order — the deterministic
// iteration order for quiescence checkers.
func (r *runner) flowOrder() []uint64 {
	out := make([]uint64, 0, len(r.flows))
	for f := range r.flows {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
