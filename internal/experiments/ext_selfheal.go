package experiments

import (
	"fmt"
	"time"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/trace"
)

// ExtSelfHealParams configures the self-healing-pool experiment: a
// long-running client sending through a TunnelPool versus the same
// client riding one fixed tunnel, both under sustained correlated churn.
// Every selfHealEpoch a random ChurnRate fraction of the network fails as one
// batch (replica migration suspended, the Figure 2 correlated-failure
// model — the only failure mode that actually kills anchors) and the
// same number of fresh nodes join. The paper's §6 hop takeover keeps
// tunnels alive under *graceful* single-node churn; this experiment
// measures what the pool's probing, failover and rebuilding buy once
// churn is batched and replication is thin (k=2), so tunnels genuinely
// die mid-session.
type ExtSelfHealParams struct {
	N int `count:""`
	// Singles is how many independent single-tunnel baseline clients run
	// alongside the pool (their availabilities average into one baseline
	// series).
	Singles int `count:""`
	// ChurnRates are the per-epoch batch-failure fractions swept on the x
	// axis.
	ChurnRates []float64
	Trials     int `count:""`
	Seed       uint64
}

// What every run of the experiment holds fixed.
const (
	selfHealK        = 2 // replication factor: 2 so batch churn kills anchors
	selfHealLength   = 3
	selfHealPoolSize = 3 // the pool's target tunnel count
	// selfHealEpoch and selfHealHorizon set the churn cadence and session
	// length.
	selfHealEpoch   = 30 * time.Second
	selfHealHorizon = 600 * time.Second
	// selfHealSendEvery is the client send cadence; selfHealPayloadBytes
	// each send's size.
	selfHealSendEvery    = 2 * time.Second
	selfHealPayloadBytes = 512
	// selfHealMaxAttempts is the baseline's per-message transmission
	// budget (the pool uses its own per-message budgets).
	selfHealMaxAttempts = 4
)

func (p ExtSelfHealParams) withDefaults() ExtSelfHealParams {
	if p.N == 0 {
		p.N = 250
	}
	if p.Singles == 0 {
		p.Singles = 8
	}
	if len(p.ChurnRates) == 0 {
		p.ChurnRates = []float64{0.02, 0.05, 0.10}
	}
	if p.Trials == 0 {
		p.Trials = 2
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Series names for the self-healing experiment.
const (
	SeriesAvailPool   = "avail(pool)"
	SeriesAvailSingle = "avail(single)"
	SeriesTTRPool     = "ttr_s(pool)"
)

// ExtSelfHeal reports send availability (delivered fraction) for the
// pooled and single-tunnel clients, and the pool's mean time-to-repair —
// first probe failure to promoted replacement — per churn rate. Pool and
// baseline clients share one world, one kernel and the identical churn
// schedule, so the comparison is paired, not sampled.
func ExtSelfHeal(p ExtSelfHealParams) (*trace.Table, error) {
	if err := refuseNegative("ext-selfheal", p); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	tbl := trace.NewTable(
		fmt.Sprintf("Ext: self-healing pools — availability and time-to-repair under batch churn (N=%d, k=%d, l=%d, pool=%d, %v session, trials=%d)",
			p.N, selfHealK, selfHealLength, selfHealPoolSize, selfHealHorizon, p.Trials),
		"churn %/epoch",
		SeriesAvailPool, SeriesAvailSingle, SeriesTTRPool)
	root := rng.New(p.Seed)
	err := runTrials(tbl, len(p.ChurnRates), p.Trials, func(ci, trial int, mem *pastry.Scratch, add addFn) error {
		frac := p.ChurnRates[ci]
		stream := root.SplitN(fmt.Sprintf("selfheal-c%d", ci), trial)
		res, err := runSelfHealTrial(p, frac, stream, mem)
		if err != nil {
			return err
		}
		x := frac * 100
		add(x, SeriesAvailPool, res.availPool)
		add(x, SeriesAvailSingle, res.availSingle)
		if res.repairs > 0 {
			add(x, SeriesTTRPool, res.ttr.Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// selfHealResult is one trial's measurement.
type selfHealResult struct {
	availPool   float64
	availSingle float64
	ttr         simnet.Time
	repairs     uint64
	poolStats   core.PoolStats
}

// runSelfHealTrial runs one world with a pooled client and Singles
// baseline clients through selfHealHorizon of batch churn.
func runSelfHealTrial(p ExtSelfHealParams, frac float64, stream *rng.Stream, mem *pastry.Scratch) (selfHealResult, error) {
	var res selfHealResult
	w, err := BuildWorldIn(mem, p.N, selfHealK, stream.Split("world"))
	if err != nil {
		return res, err
	}
	kernel, net, eng := w.NewEngine(stream.Seed())
	kernel.MaxSteps = 0

	// Clients are exempt from churn: a dead initiator measures nothing.
	protected := make(map[simnet.Addr]bool)
	cs := stream.Split("clients")

	poolNode := w.OV.RandomLive(cs)
	protected[poolNode.Ref().Addr] = true
	poolIn, err := core.NewInitiator(w.Svc, poolNode, cs.Split("pool-init"))
	if err != nil {
		return res, err
	}
	pool, err := core.NewTunnelPool(poolIn, eng, core.PoolConfig{
		Size:   selfHealPoolSize,
		Length: selfHealLength,
	})
	if err != nil {
		return res, err
	}
	pool.Start()

	type single struct {
		origin simnet.Addr
		tun    *core.Tunnel
	}
	singles := make([]*single, 0, p.Singles)
	for i := 0; i < p.Singles; i++ {
		node := w.OV.RandomLive(cs)
		for protected[node.Ref().Addr] {
			node = w.OV.RandomLive(cs)
		}
		protected[node.Ref().Addr] = true
		_, tun, err := ownTunnel(w, node, selfHealLength, cs.SplitN("single-init", i))
		if err != nil {
			return res, err
		}
		if err := tun.RefreshHints(w.Svc); err != nil {
			return res, err
		}
		singles = append(singles, &single{origin: node.Ref().Addr, tun: tun})
	}

	// Batch churn: every epoch, kill a random frac of the network in one
	// correlated batch (migration suspended — an anchor whose replicas all
	// fall in the batch is lost for good) and join the same number of
	// fresh nodes so the population and routability hold steady.
	churn := stream.Split("churn")
	kills := int(frac*float64(p.N) + 0.5)
	churnEpoch := func() {
		taken := make(map[simnet.Addr]bool)
		var victims []simnet.Addr
		for tries := 0; len(victims) < kills && tries < kills*20; tries++ {
			a := w.OV.RandomLive(churn).Ref().Addr
			if protected[a] || taken[a] {
				continue
			}
			taken[a] = true
			victims = append(victims, a)
		}
		w.Mgr.BeginBatch()
		for _, a := range victims {
			if err := w.OV.Fail(a); err == nil {
				net.Detach(a)
			}
		}
		w.Mgr.EndBatch()
		for range victims {
			w.OV.Join()
		}
	}
	for at := selfHealEpoch; at < selfHealHorizon; at += selfHealEpoch {
		kernel.At(at, churnEpoch)
	}

	// The paired workload: every selfHealSendEvery, one pool send and one send per
	// baseline client. A pool fast-fail (degraded) counts as a failed
	// send — refusing service is still unavailability.
	traffic := stream.Split("traffic")
	var poolSent, poolOK, singleSent, singleOK int
	sendRound := func() {
		var dest id.ID
		traffic.Bytes(dest[:])
		poolSent++
		_ = pool.Send(dest, make([]byte, selfHealPayloadBytes), func(o core.Outcome) {
			if o.Delivered {
				poolOK++
			}
		})
		for _, s := range singles {
			var d id.ID
			traffic.Bytes(d[:])
			singleSent++
			eng.SendMessage(s.origin, s.tun, d, make([]byte, selfHealPayloadBytes), selfHealMaxAttempts, func(o core.Outcome) {
				if o.Delivered {
					singleOK++
				}
			})
		}
	}
	for at := simnet.Time(0); at < selfHealHorizon; at += selfHealSendEvery {
		kernel.At(at, sendRound)
	}
	kernel.At(selfHealHorizon, pool.Stop)

	if err := kernel.Run(); err != nil {
		return res, err
	}
	res.availPool = float64(poolOK) / float64(poolSent)
	res.availSingle = float64(singleOK) / float64(singleSent)
	res.ttr = pool.MeanRepairTime()
	res.repairs = pool.Stats.Repairs
	res.poolStats = pool.Stats
	return res, nil
}
