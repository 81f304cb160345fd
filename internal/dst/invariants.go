package dst

import (
	"fmt"

	"tap/internal/simnet"
)

// Checker is one registered runtime invariant. AfterEvent runs right
// after every applied schedule event; AtQuiescence runs once the kernel
// drains. Either may be nil. The no-plaintext invariant is not listed
// here — it is a wire tap installed in build() that fires synchronously
// on the offending frame — but it reports violations under the same
// naming scheme.
type Checker struct {
	Name         string
	Doc          string
	AfterEvent   func(r *runner) (string, bool)
	AtQuiescence func(r *runner) (string, bool)
}

// Checkers returns the invariant registry, in evaluation order. The
// order is part of the deterministic-replay contract: the first
// violating checker wins, every run.
func Checkers() []Checker {
	return []Checker{
		{
			Name: "tha-replication",
			Doc: "every surviving hop anchor is stored on exactly the k " +
				"live nodes numerically closest to its hopid, in oracle order (§3)",
			AfterEvent:   checkTHAReplication,
			AtQuiescence: checkTHAReplication,
		},
		{
			Name: "leafset",
			Doc: "every live node's leaf set matches the oracle's ring " +
				"neighborhood and routing tables respect their slot constraints",
			AfterEvent:   checkLeafSet,
			AtQuiescence: checkLeafSet,
		},
		{
			Name: "no-plaintext",
			Doc: "no frame on the wire exposes payload bytes outside a " +
				"sealed layer (checked per transmission by a wire tap)",
		},
		{
			Name: "tunnel-liveness",
			Doc: "every send resolves, and — in loss-free runs — a message " +
				"through a tunnel whose anchors all survived is delivered (§6 hop takeover)",
			AtQuiescence: checkTunnelLiveness,
		},
		{
			Name: "exactly-once",
			Doc: "a flow's terminal delivers it to the application at most " +
				"once and its outcome callback fires at most once, despite retransmission",
			AtQuiescence: checkExactlyOnce,
		},
		{
			Name: "rebuild-rate",
			Doc: "every tunnel rebuild was admitted by the shared rate " +
				"limiter, and the limiter never admitted more than its bucket bound allows",
			AfterEvent:   checkRebuildRate,
			AtQuiescence: checkRebuildRate,
		},
		{
			Name: "pool-reconverge",
			Doc: "in loss-free runs, every tunnel pool is back at its " +
				"target healthy size once all partitions healed and the repair horizon passed",
			AtQuiescence: checkPoolReconverge,
		},
		{
			Name: "stream-in-order-delivery",
			Doc: "a windowed stream's receiver hands the application " +
				"strictly in-order, byte-identical, exactly-once data (checked " +
				"synchronously at each delivery), every stream resolves, and a " +
				"completed stream closed exactly once with every sent byte delivered",
			AtQuiescence: checkStreamDelivery,
		},
		{
			Name: "window-conservation",
			Doc: "a stream sender never holds more unacknowledged segments " +
				"in flight than its configured window",
			AfterEvent:   checkWindowConservation,
			AtQuiescence: checkWindowConservation,
		},
	}
}

// runCheckers evaluates the registry at one point (event index, or -1 at
// quiescence) and records the first violation.
func (r *runner) runCheckers(event int, quiescence bool) {
	for _, c := range Checkers() {
		fn := c.AfterEvent
		if quiescence {
			fn = c.AtQuiescence
		}
		if fn == nil {
			continue
		}
		if msg, bad := fn(r); bad {
			r.violate(c.Name, msg)
			return
		}
	}
}

// checkTHAReplication compares every tracked anchor's replica list with
// the oracle's k-closest set, elementwise and in order. Anchors with no
// surviving replica are legitimately lost (the "all k failed
// simultaneously" case) and skipped. Iteration follows first-deployment
// order, so the first violation is stable across replays.
func checkTHAReplication(r *runner) (string, bool) {
	for _, key := range r.anchors {
		if !r.dir.Available(key) {
			continue
		}
		reps := r.mgr.Replicas(key)
		want := r.ov.ReplicaSet(key, r.mgr.K())
		if len(reps) != len(want) {
			return fmt.Sprintf("anchor %s has %d replicas, oracle wants %d",
				key.Short(), len(reps), len(want)), true
		}
		for i, n := range want {
			if reps[i] != simnet.Addr(n.Addr()) {
				return fmt.Sprintf("anchor %s replica[%d] at addr %d, oracle wants addr %d",
					key.Short(), i, reps[i], n.Addr()), true
			}
		}
	}
	return "", false
}

// checkLeafSet delegates to the overlay's structural invariants, which
// iterate the sorted live index — deterministic messages for free.
func checkLeafSet(r *runner) (string, bool) {
	if err := r.ov.CheckInvariants(); err != nil {
		return err.Error(), true
	}
	return "", false
}

// checkTunnelLiveness verifies at quiescence that (a) every send
// resolved — delivered or exhausted — and (b) in loss-free runs, every
// flow whose tunnel remained functional (each hop anchor kept a
// live replica; anchors never resurrect, so functional-at-end implies
// functional throughout) was delivered. Under packet loss (b) is
// undecidable — an honest retransmit budget can exhaust — so it is
// skipped there.
func checkTunnelLiveness(r *runner) (string, bool) {
	for _, flow := range r.flowOrder() {
		if r.flows[flow].outcomes == 0 {
			return fmt.Sprintf("flow %d never resolved (no delivery, no exhaust)", flow), true
		}
	}
	for i, rec := range r.poolSends {
		if rec.outcomes == 0 {
			return fmt.Sprintf("pool send %d never resolved (no delivery, no exhaust)", i), true
		}
	}
	if r.sc.Loss > 0 || r.hasPartitions {
		// Under loss or partitions (b) is undecidable: an honest flow can
		// exhaust its budget while every hop anchor keeps a live replica.
		return "", false
	}
	for _, flow := range r.flowOrder() {
		rec := r.flows[flow]
		if rec.outcome.Delivered || rec.tunnel == nil {
			continue
		}
		functional := true
		for _, h := range rec.tunnel.Hops {
			if !r.dir.Available(h.HopID) {
				functional = false
				break
			}
		}
		if functional {
			return fmt.Sprintf("flow %d failed (%s) though every hop anchor kept a live replica",
				flow, rec.outcome.FailedAt), true
		}
	}
	return "", false
}

// checkExactlyOnce verifies the delivery-count discipline per flow. A
// message's OnData hook (installed from OnStream) also fires this check
// synchronously at the offending delivery; this quiescence pass is the
// backstop that additionally ties delivery counts to outcomes.
func checkExactlyOnce(r *runner) (string, bool) {
	for _, flow := range r.flowOrder() {
		rec := r.flows[flow]
		if rec.fresh > 1 {
			return fmt.Sprintf("flow %d delivered fresh to the terminal %d times", flow, rec.fresh), true
		}
		if rec.outcomes > 1 {
			return fmt.Sprintf("flow %d fired its outcome callback %d times", flow, rec.outcomes), true
		}
		if rec.outcomes == 1 && rec.outcome.Delivered && rec.fresh == 0 {
			return fmt.Sprintf("flow %d reported delivered but its terminal never saw data", flow), true
		}
	}
	for i, rec := range r.poolSends {
		if rec.outcomes > 1 {
			return fmt.Sprintf("pool send %d fired its outcome callback %d times", i, rec.outcomes), true
		}
	}
	return "", false
}

// checkStreamDelivery is the quiescence backstop behind the synchronous
// OnData discipline (in-order, byte-identical, exactly-once): every
// stream must have resolved — the kernel only drains once each stream
// completed or exhausted its retries, so a silent stall is a liveness
// bug — with exactly one completion callback, and a stream that reports
// Done must have closed its receiver exactly once after delivering every
// sent byte. Decidable under loss and reordering alike: an exhausted
// retry budget still resolves (Done stays false) and is not a violation.
func checkStreamDelivery(r *runner) (string, bool) {
	for _, sid := range r.streamIDs {
		rec := r.streams[sid]
		if rec.completions == 0 {
			return fmt.Sprintf("stream %d never resolved (no completion callback)", sid), true
		}
		if rec.completions > 1 {
			return fmt.Sprintf("stream %d fired its completion callback %d times", sid, rec.completions), true
		}
		if !rec.s.Done() {
			continue
		}
		if rec.closes != 1 {
			return fmt.Sprintf("stream %d completed but its receiver closed %d times", sid, rec.closes), true
		}
		if rec.recvOff != len(rec.content) {
			return fmt.Sprintf("stream %d completed but the receiver assembled %d of %d sent bytes",
				sid, rec.recvOff, len(rec.content)), true
		}
	}
	return "", false
}

// checkWindowConservation audits every stream sender's peak-inflight
// observable against the window the scenario asked for. A sender that
// overfills its window (the congestion-collapse bug this checker exists
// for) is caught on the first event after the burst, regardless of
// whether the extra segments ever arrive.
func checkWindowConservation(r *runner) (string, bool) {
	for _, sid := range r.streamIDs {
		rec := r.streams[sid]
		if got, w := rec.s.MaxInflightSegs(), rec.window; got > w {
			return fmt.Sprintf("stream %d put %d segments in flight, window %d", sid, got, w), true
		}
	}
	return "", false
}

// checkRebuildRate audits the pools' shared rebuild admission control:
// (a) the limiter's arithmetic — it never admits more than its token
// bucket bound allows by the current time — and (b) the pools' honesty —
// every rebuild any pool ran was an admitted one. A pool that bypasses
// admission (the rebuild-storm bug this checker exists for) shows more
// rebuilds than admissions on its first bypassed rebuild, regardless of
// storm size. Decidable under loss and partitions alike, so it is never
// skipped.
func checkRebuildRate(r *runner) (string, bool) {
	var rebuilds uint64
	for _, c := range r.clients {
		if c.pool != nil {
			rebuilds += c.pool.Stats.Rebuilds
		}
	}
	bound := r.limiter.Bound(r.kernel.Now())
	if float64(r.limiter.Admitted) > bound+1e-9 {
		return fmt.Sprintf("limiter admitted %d rebuilds by t=%v, bucket bound %.2f",
			r.limiter.Admitted, r.kernel.Now(), bound), true
	}
	if rebuilds > r.limiter.Admitted {
		return fmt.Sprintf("pools ran %d rebuilds but the limiter admitted only %d",
			rebuilds, r.limiter.Admitted), true
	}
	return "", false
}

// checkPoolReconverge verifies self-healing at quiescence: once every
// partition healed and the repair horizon passed (the runner stops pools
// only after poolRepairBudget), each pool must be back to its target
// number of healthy tunnels. Skipped under packet loss, where probe
// failures — and so repair timing — are not deterministic functions of
// the schedule.
func checkPoolReconverge(r *runner) (string, bool) {
	if r.sc.Loss > 0 || r.net.PartitionActive() {
		return "", false
	}
	for i, c := range r.clients {
		if c.pool == nil {
			continue
		}
		if got, want := c.pool.HealthyCount(), c.pool.TargetSize(); got != want {
			return fmt.Sprintf("client %d pool has %d healthy tunnels at quiescence, want %d",
				i, got, want), true
		}
	}
	return "", false
}
