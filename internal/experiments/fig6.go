package experiments

import (
	"fmt"
	"time"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/trace"
)

// Fig6Params configures Figure 6: transfer latency of a 2 Mb file vs
// network size, for overt routing, TAP's basic tunneling, and TAP's
// performance-optimized tunneling, at tunnel lengths 3 and 5. Links have
// 1–230 ms latency and 1.5 Mb/s bandwidth, as in the paper.
type Fig6Params struct {
	Sizes     []int // network sizes (paper: 100 .. 10,000)
	Lengths   []int // tunnel lengths (paper: 3 and 5)
	K         int
	FileBytes int // paper: 2 Mb = 250,000 bytes
	Transfers int // transfers measured per simulation (paper: 1,000)
	Sims      int // simulations per size (paper: 30)
	Seed      uint64
	// WithTails adds a p95 series per mode alongside the means, for tail
	// latency analysis beyond the paper's mean-only plot.
	WithTails bool
	// UplinkContention enables per-node uplink queuing in the network
	// model; off reproduces the paper's independent-transfer assumption.
	UplinkContention bool
}

func (p Fig6Params) withDefaults() Fig6Params {
	if len(p.Sizes) == 0 {
		p.Sizes = []int{100, 300, 1000, 3000, 10000}
	}
	if len(p.Lengths) == 0 {
		p.Lengths = []int{3, 5}
	}
	if p.K == 0 {
		p.K = 3
	}
	if p.FileBytes == 0 {
		p.FileBytes = 250_000
	}
	if p.Transfers == 0 {
		p.Transfers = 20
	}
	if p.Sims == 0 {
		p.Sims = 3
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Series names for Figure 6.
const SeriesOvert = "overt"

func seriesBasic(l int) string { return fmt.Sprintf("TAP_basic(l=%d)", l) }
func seriesOpt(l int) string   { return fmt.Sprintf("TAP_opt(l=%d)", l) }

// Fig6 runs the latency experiment and reports mean transfer time in
// seconds per network size and mode.
func Fig6(p Fig6Params) (*trace.Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	series := []string{SeriesOvert}
	for _, l := range p.Lengths {
		series = append(series, seriesBasic(l))
	}
	for _, l := range p.Lengths {
		series = append(series, seriesOpt(l))
	}
	baseSeries := append([]string(nil), series...)
	if p.WithTails {
		for _, s := range baseSeries {
			series = append(series, s+"_p95")
		}
	}
	tbl := trace.NewTable(
		fmt.Sprintf("Fig 6: 2Mb transfer time (s) vs network size (k=%d, %d sims x %d transfers, 1-230ms links @1.5Mb/s)",
			p.K, p.Sims, p.Transfers),
		"nodes", series...)

	// Tail collection: each cell keeps its own raw observations, so no two
	// workers share a slice.
	type sampleKey struct {
		x      float64
		series string
	}
	type tailObs struct {
		key sampleKey
		v   float64
	}

	tails := make([][]tailObs, len(p.Sizes)*p.Sims)
	root := rng.New(p.Seed)
	err := runTrials(tbl, len(p.Sizes), p.Sims, func(si, sim int, mem *pastry.Scratch, add addFn) error {
		size := p.Sizes[si]
		stream := root.SplitN(fmt.Sprintf("fig6-n%d", size), sim)
		i := si*p.Sims + sim
		record := func(s string, v float64) {
			add(float64(size), s, v)
			if p.WithTails {
				tails[i] = append(tails[i], tailObs{sampleKey{float64(size), s}, v})
			}
		}
		w, err := BuildWorldIn(mem, size, p.K, stream.Split("world"))
		if err != nil {
			return err
		}
		kernel, net, eng := w.NewEngine(stream.Split("links").Seed())
		kernel.MaxSteps = 0
		net.UplinkContention = p.UplinkContention

		maxLen := 0
		for _, l := range p.Lengths {
			if l > maxLen {
				maxLen = l
			}
		}

		run := func(send func(done func(core.Outcome))) (time.Duration, error) {
			start := kernel.Now()
			var out core.Outcome
			got := false
			send(func(o core.Outcome) { out = o; got = true })
			if err := kernel.Run(); err != nil {
				return 0, err
			}
			if !got || !out.Delivered {
				return 0, fmt.Errorf("experiments: fig6 transfer failed (%s)", out.FailedAt)
			}
			return out.At - start, nil
		}

		tstream := stream.Split("transfers")
		payload := make([]byte, p.FileBytes)
		for tr := 0; tr < p.Transfers; tr++ {
			node := w.OV.RandomLive(tstream)
			in, err := core.NewInitiator(w.Svc, node, tstream.SplitN("init", tr))
			if err != nil {
				return err
			}
			if err := in.DeployDirect(maxLen + 3); err != nil {
				return err
			}
			var fileID id.ID
			tstream.Bytes(fileID[:])

			// Overt transfer over the routing infrastructure.
			d, err := run(func(done func(core.Outcome)) {
				eng.SendOvert(node.Ref().Addr, fileID, p.FileBytes, done)
			})
			if err != nil {
				return err
			}
			record(SeriesOvert, d.Seconds())

			for _, l := range p.Lengths {
				tun, err := in.FormTunnel(l)
				if err != nil {
					return err
				}
				// Basic tunneling: hopids only.
				env, err := core.BuildForward(tun, nil, fileID, payload, tstream)
				if err != nil {
					return err
				}
				d, err := run(func(done func(core.Outcome)) {
					eng.SendForward(node.Ref().Addr, env, done)
				})
				if err != nil {
					return err
				}
				record(seriesBasic(l), d.Seconds())

				// Optimized tunneling: fresh address hints per §5.
				if err := tun.RefreshHints(w.Svc); err != nil {
					return err
				}
				optEnv, err := core.BuildForwardHinted(tun, fileID, payload, tstream)
				if err != nil {
					return err
				}
				d, err = run(func(done func(core.Outcome)) {
					eng.SendForward(node.Ref().Addr, optEnv, done)
				})
				if err != nil {
					return err
				}
				record(seriesOpt(l), d.Seconds())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p95 := make(map[sampleKey]*trace.Sample)
	for _, obs := range tails {
		for _, o := range obs {
			smp := p95[o.key]
			if smp == nil {
				smp = &trace.Sample{}
				p95[o.key] = smp
			}
			smp.Add(o.v)
		}
	}
	for key, smp := range p95 {
		tbl.Add(key.x, key.series+"_p95", smp.P95())
	}
	return tbl, nil
}
