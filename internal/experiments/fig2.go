package experiments

import (
	"fmt"

	"tap/internal/churn"
	"tap/internal/core"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/trace"
)

// Fig2Params configures the Figure 2 experiment: "the fraction of tunnels
// that fail as a function of the fraction of nodes that fail". The paper
// uses a 10^4-node network, 5,000 tunnels of length 5, and compares
// current tunneling against TAP with k=3 and k=5.
type Fig2Params struct {
	N       int // network size (paper: 10_000)
	Tunnels int // tunnels formed (paper: 5_000)
	Length  int // tunnel length (paper: 5)
	Ks      []int
	Fracs   []float64 // node failure fractions p
	Trials  int
	Seed    uint64
	// FullWalk verifies surviving tunnels by complete end-to-end delivery
	// rather than anchor availability. Slower; results agree (a test
	// asserts so).
	FullWalk bool
}

// withDefaults fills zero fields with the paper's settings.
func (p Fig2Params) withDefaults() Fig2Params {
	if p.N == 0 {
		p.N = 10_000
	}
	if p.Tunnels == 0 {
		p.Tunnels = 5_000
	}
	if p.Length == 0 {
		p.Length = 5
	}
	if len(p.Ks) == 0 {
		p.Ks = []int{3, 5}
	}
	if len(p.Fracs) == 0 {
		for f := 0.05; f < 0.51; f += 0.05 {
			p.Fracs = append(p.Fracs, f)
		}
	}
	if p.Trials == 0 {
		p.Trials = 3
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// SeriesCurrent is the baseline series name.
const SeriesCurrent = "current"

// seriesTAP names a TAP curve for a replication factor.
func seriesTAP(k int) string { return fmt.Sprintf("TAP(k=%d)", k) }

// Fig2 runs the experiment and returns the mean tunnel failure rate per
// failure fraction for each series. Baseline tunnels are measured in the
// first k's world (their behaviour does not depend on k).
func Fig2(p Fig2Params) (*trace.Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	series := []string{SeriesCurrent}
	for _, k := range p.Ks {
		series = append(series, seriesTAP(k))
	}
	tbl := trace.NewTable(
		fmt.Sprintf("Fig 2: tunnel failure vs node failure fraction (N=%d, tunnels=%d, l=%d, trials=%d)",
			p.N, p.Tunnels, p.Length, p.Trials),
		"p", series...)

	// A point is a (k, frac) pair.
	root := rng.New(p.Seed)
	err := runTrials(tbl, len(p.Ks)*len(p.Fracs), p.Trials, func(pt, trial int, mem *pastry.Scratch, add addFn) error {
		ki, fi := pt/len(p.Fracs), pt%len(p.Fracs)
		k := p.Ks[ki]
		frac := p.Fracs[fi]
		stream := root.SplitN(fmt.Sprintf("fig2-k%d-f%d", k, fi), trial)
		w, err := BuildWorldIn(mem, p.N, k, stream.Split("world"))
		if err != nil {
			return err
		}
		ts, err := DeployTunnels(w, p.Tunnels, p.Length, stream.Split("tunnels"))
		if err != nil {
			return err
		}
		// Baseline tunnels share the world of the first k only.
		var fixed []*core.FixedTunnel
		if ki == 0 {
			fixed = make([]*core.FixedTunnel, 0, p.Tunnels)
			fstream := stream.Split("fixed")
			for t := 0; t < p.Tunnels; t++ {
				ft, err := core.FormFixed(w.OV, p.Length, fstream)
				if err != nil {
					return err
				}
				fixed = append(fixed, ft)
			}
		}

		churn.FailFraction(w.OV, w.Mgr, frac, stream.Split("fail"), nil)

		failedTAP := 0
		probe := stream.Split("probe")
		for t := range ts.Tunnels {
			if !TunnelFunctional(w, ts.Initiators[t], ts.Tunnels[t], p.FullWalk, probe) {
				failedTAP++
			}
		}
		add(frac, seriesTAP(k), float64(failedTAP)/float64(p.Tunnels))

		if fixed != nil {
			failedFixed := 0
			for _, ft := range fixed {
				if !ft.Alive(w.OV) {
					failedFixed++
				}
			}
			add(frac, SeriesCurrent, float64(failedFixed)/float64(p.Tunnels))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
