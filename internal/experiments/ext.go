package experiments

// Extension experiments: the cover-traffic cost argument the paper makes
// but does not evaluate (§2). It follows the same harness conventions as
// the figure experiments and is wired into cmd/tapsim as ext-cover.

import (
	"fmt"
	"time"

	"tap/internal/core"
	"tap/internal/cover"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/trace"
)

// --- cover traffic ---------------------------------------------------------------

// ExtCoverParams configures the cover-traffic cost experiment: the
// bandwidth multiplier of constant-rate cover for a fixed anonymous
// workload.
type ExtCoverParams struct {
	N         int       `count:""`
	Rates     []float64 // dummies per second per node (0 = off)
	Transfers int       `count:""` // real transfers in the workload
	FileBytes int       `count:""`
	Length    int       `count:""`
	Trials    int       `count:""`
	Seed      uint64
}

func (p ExtCoverParams) withDefaults() ExtCoverParams {
	if p.N == 0 {
		p.N = 500
	}
	if len(p.Rates) == 0 {
		p.Rates = []float64{0, 0.2, 1, 5}
	}
	if p.Transfers == 0 {
		p.Transfers = 5
	}
	if p.FileBytes == 0 {
		p.FileBytes = 250_000
	}
	if p.Length == 0 {
		p.Length = 5
	}
	if p.Trials == 0 {
		p.Trials = 3
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Series names for the cover experiment.
const (
	SeriesOverheadX = "bytes_multiplier"
	SeriesCoverMsgs = "dummies_sent"
)

// ExtCover runs a fixed tunnel workload with cover traffic at each rate
// and reports total network bytes as a multiple of the no-cover run.
func ExtCover(p ExtCoverParams) (*trace.Table, error) {
	if err := refuseNegative("ext-cover", p); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	tbl := trace.NewTable(
		fmt.Sprintf("Ext: cover traffic cost — network bytes multiplier vs cover rate (N=%d, %d transfers of %d bytes, trials=%d)",
			p.N, p.Transfers, p.FileBytes, p.Trials),
		"rate", SeriesOverheadX, SeriesCoverMsgs)
	root := rng.New(p.Seed)
	err := runTrials(tbl, 1, p.Trials, func(_, trial int, mem *pastry.Scratch, add addFn) error {
		stream := root.SplitN("extcover", trial)
		var baseline float64
		for _, rate := range p.Rates {
			w, err := BuildWorldIn(mem, p.N, 3, stream.SplitN("world", int(rate*100)))
			if err != nil {
				return err
			}
			kernel, net, eng := w.NewEngine(stream.Seed())
			kernel.MaxSteps = 20_000_000

			// Workload: transfers started one simulated second apart.
			ts := stream.SplitN("transfers", int(rate*100))
			pending := p.Transfers
			for tr := 0; tr < p.Transfers; tr++ {
				tr := tr
				kernel.At(simnet.Time(tr)*simnet.Time(time.Second), func() {
					node := w.OV.RandomLive(ts)
					_, tun, err := ownTunnel(w, node, p.Length, ts.SplitN("init", tr))
					if err != nil {
						return
					}
					var dest id.ID
					ts.Bytes(dest[:])
					env, err := core.BuildForward(tun, nil, dest, make([]byte, p.FileBytes), ts)
					if err != nil {
						return
					}
					eng.SendForward(node.Ref().Addr, env, func(core.Outcome) { pending-- })
				})
			}

			// Cover runs for the whole workload window.
			horizon := simnet.Time(p.Transfers+30) * simnet.Time(time.Second)
			var gen *cover.Generator
			if rate > 0 {
				interval := time.Duration(float64(time.Second) / rate)
				gen = cover.NewGenerator(w.OV, net, interval, 0, stream.SplitN("cover", int(rate*100)))
				gen.Start(horizon)
			}
			if err := kernel.Run(); err != nil {
				return err
			}
			if pending != 0 {
				return fmt.Errorf("experiments: ext-cover: %d transfers unfinished", pending)
			}
			total := float64(net.Stats.BytesSent)
			if rate == 0 {
				baseline = total
			}
			if baseline == 0 {
				return fmt.Errorf("experiments: ext-cover: rates must include 0 first")
			}
			add(rate, SeriesOverheadX, total/baseline)
			if gen != nil {
				add(rate, SeriesCoverMsgs, float64(gen.Sent))
			} else {
				add(rate, SeriesCoverMsgs, 0)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
