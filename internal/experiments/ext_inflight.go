package experiments

import (
	"fmt"
	"time"

	"tap/internal/churn"
	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/trace"
)

// ExtInflightParams configures the in-flight churn experiment: multi-hop
// transfers racing a continuous churn process. Unlike Figure 2 (fail,
// then try) this measures the window of vulnerability *during* a
// transfer: a relay that dies while holding the message loses it, and a
// hop anchor that migrates mid-flight is found again through the DHT.
type ExtInflightParams struct {
	N         int
	Length    int
	FileBytes int
	// MeanGaps are the average times between churn events (one
	// departure + one arrival each); smaller = harsher. 0 means no churn
	// and is always included as the baseline.
	MeanGaps  []time.Duration
	Transfers int
	Trials    int
	Seed      uint64
}

func (p ExtInflightParams) withDefaults() ExtInflightParams {
	if p.N == 0 {
		p.N = 1000
	}
	if p.Length == 0 {
		p.Length = 5
	}
	if p.FileBytes == 0 {
		p.FileBytes = 250_000
	}
	if len(p.MeanGaps) == 0 {
		p.MeanGaps = []time.Duration{0, 10 * time.Second, 3 * time.Second, 1 * time.Second}
	}
	if p.Transfers == 0 {
		p.Transfers = 40
	}
	if p.Trials == 0 {
		p.Trials = 3
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Series names for the in-flight experiment.
const (
	SeriesDelivered = "delivered"
	SeriesMeanSecs  = "mean_latency_s"
)

// ExtInflight reports delivery rate and successful-transfer latency per
// churn intensity. The x axis is churn events per minute (0 = none).
func ExtInflight(p ExtInflightParams) (*trace.Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	tbl := trace.NewTable(
		fmt.Sprintf("Ext: in-flight churn — 2Mb tunnel transfers racing churn (N=%d, l=%d, %d transfers, trials=%d)",
			p.N, p.Length, p.Transfers, p.Trials),
		"churn/min", SeriesDelivered, SeriesMeanSecs)
	root := rng.New(p.Seed)
	err := runTrials(tbl, len(p.MeanGaps), p.Trials, func(gi, trial int, mem *pastry.Scratch, add addFn) error {
		gap := p.MeanGaps[gi]
		perMin := 0.0
		if gap > 0 {
			perMin = float64(time.Minute) / float64(gap)
		}
		stream := root.SplitN(fmt.Sprintf("inflight-g%d", gi), trial)
		w, err := BuildWorldIn(mem, p.N, 3, stream.Split("world"))
		if err != nil {
			return err
		}
		kernel, net, eng := w.NewEngine(stream.Seed())
		kernel.MaxSteps = 0

		// Transfers start 40 s apart (a basic l=5 transfer takes ~30 s),
		// so at most two overlap and the churn clock keeps running the
		// whole time.
		const spacing = 40 * time.Second
		horizon := simnet.Time(p.Transfers+2) * simnet.Time(spacing)

		ts := stream.Split("transfers")
		type flowResult struct {
			got bool
			out core.Outcome
		}
		results := make([]flowResult, p.Transfers)
		starts := make([]simnet.Time, p.Transfers)
		protected := make(map[simnet.Addr]struct{})

		for tr := 0; tr < p.Transfers; tr++ {
			tr := tr
			at := simnet.Time(tr) * simnet.Time(spacing)
			kernel.At(at, func() {
				node := w.OV.RandomLive(ts)
				_, tun, err := ownTunnel(w, node, p.Length, ts.SplitN("init", tr))
				if err != nil {
					return
				}
				protected[node.Ref().Addr] = struct{}{}
				var dest id.ID
				ts.Bytes(dest[:])
				env, err := core.BuildForward(tun, nil, dest, make([]byte, p.FileBytes), ts)
				if err != nil {
					return
				}
				starts[tr] = kernel.Now()
				eng.SendForward(node.Ref().Addr, env, func(o core.Outcome) {
					results[tr] = flowResult{got: true, out: o}
				})
			})
		}

		if gap > 0 {
			d := churn.NewDriver(w.OV, net, gap, stream.Split("churn"))
			d.Keep = func(a simnet.Addr) bool {
				_, keep := protected[a]
				return keep
			}
			d.Start(horizon)
		}
		if err := kernel.Run(); err != nil {
			return err
		}

		delivered := 0
		var lat trace.Accum
		for tr := 0; tr < p.Transfers; tr++ {
			r := results[tr]
			if r.got && r.out.Delivered {
				delivered++
				lat.Add((r.out.At - starts[tr]).Seconds())
			}
		}
		add(perMin, SeriesDelivered, float64(delivered)/float64(p.Transfers))
		if lat.N() > 0 {
			add(perMin, SeriesMeanSecs, lat.Mean())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
