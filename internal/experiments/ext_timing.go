package experiments

import (
	"fmt"
	"time"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/timing"
	"tap/internal/trace"
)

// ExtTimingParams configures the timing-analysis experiment: how often a
// colluding adversary that wiretaps its own nodes can trace an observed
// tunnel exit back to the true initiator, as a function of traffic
// density. §6's case-2 discussion, measured.
type ExtTimingParams struct {
	N      int `count:""`
	Length int `count:""`
	// FlowGaps are the spacings between consecutive flow launches;
	// smaller = more concurrent traffic = more ambiguity.
	FlowGaps []time.Duration
	// Malicious fractions, one series per value.
	Fracs  []float64
	Flows  int `count:""`
	Trials int `count:""`
	Seed   uint64
}

// timingWindow is how long after an entry the adversary still matches an
// exit to it.
const timingWindow = 20 * time.Second

func (p ExtTimingParams) withDefaults() ExtTimingParams {
	if p.N == 0 {
		p.N = 1000
	}
	if p.Length == 0 {
		p.Length = 5
	}
	if len(p.FlowGaps) == 0 {
		p.FlowGaps = []time.Duration{60 * time.Second, 10 * time.Second, 2 * time.Second, 500 * time.Millisecond}
	}
	if len(p.Fracs) == 0 {
		p.Fracs = []float64{0.1, 0.3}
	}
	if p.Flows == 0 {
		p.Flows = 40
	}
	if p.Trials == 0 {
		p.Trials = 3
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

func seriesTraced(p float64, opt bool) string {
	mode := "basic"
	if opt {
		mode = "opt"
	}
	return fmt.Sprintf("%s(p=%.2f)", mode, p)
}

// ExtTiming reports, per traffic density (x axis: flow launches per
// minute) and per malicious fraction (series), the fraction of
// adversary-observed exits that were confidently and correctly traced to
// their initiator.
func ExtTiming(p ExtTimingParams) (*trace.Table, error) {
	if err := refuseNegative("ext-timing", p); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	series := make([]string, 0, 2*len(p.Fracs))
	for _, f := range p.Fracs {
		series = append(series, seriesTraced(f, false))
	}
	for _, f := range p.Fracs {
		series = append(series, seriesTraced(f, true))
	}
	tbl := trace.NewTable(
		fmt.Sprintf("Ext: timing analysis — exits traced to initiator vs traffic density (N=%d, l=%d, %d flows, window=%v, trials=%d)",
			p.N, p.Length, p.Flows, timingWindow, p.Trials),
		"flows/min", series...)
	// A point is a (gap, frac) pair; each trial runs twice, basic then
	// optimized.
	root := rng.New(p.Seed)
	err := runTrials(tbl, len(p.FlowGaps)*len(p.Fracs), 2*p.Trials, func(pt, t int, mem *pastry.Scratch, add addFn) error {
		gi, fi := pt/len(p.Fracs), pt%len(p.Fracs)
		trial, opt := t/2, t%2 == 1
		gap := p.FlowGaps[gi]
		frac := p.Fracs[fi]
		perMin := float64(time.Minute) / float64(gap)
		stream := root.SplitN(fmt.Sprintf("exttiming-g%d-f%d-%v", gi, fi, opt), trial)
		w, err := BuildWorldIn(mem, p.N, 3, stream.Split("world"))
		if err != nil {
			return err
		}
		kernel, _, eng := w.NewEngine(stream.Seed())
		kernel.MaxSteps = 0

		mal := make(map[simnet.Addr]struct{})
		refs := w.OV.LiveRefs()
		for _, idx := range stream.Split("mark").PermFirstK(len(refs), int(frac*float64(len(refs)))) {
			mal[refs[idx].Addr] = struct{}{}
		}
		obs := timing.NewObserver(func(a simnet.Addr) bool {
			_, bad := mal[a]
			return bad
		})
		eng.Tap = obs

		trueSource := make(map[uint64]simnet.Addr)
		ts := stream.Split("flows")
		for fl := 0; fl < p.Flows; fl++ {
			fl := fl
			kernel.At(simnet.Time(fl)*simnet.Time(gap), func() {
				node := w.OV.RandomLive(ts)
				if _, bad := mal[node.Ref().Addr]; bad {
					return // malicious initiators are not attack targets
				}
				_, tun, err := ownTunnel(w, node, p.Length, ts.SplitN("init", fl))
				if err != nil {
					return
				}
				var dest id.ID
				ts.Bytes(dest[:])
				if opt {
					if err := tun.RefreshHints(w.Svc); err != nil {
						return
					}
				}
				env, err := core.BuildForwardHinted(tun, dest, make([]byte, 5000), ts)
				if err != nil {
					return
				}
				flow := eng.SendForward(node.Ref().Addr, env, nil)
				trueSource[flow] = node.Ref().Addr
			})
		}
		if err := kernel.Run(); err != nil {
			return err
		}
		score := timing.Evaluate(obs, obs.Correlate(timingWindow), trueSource)
		if score.Exits == 0 {
			// The adversary never served a tail hop: no opportunities at
			// all this trial.
			add(perMin, seriesTraced(frac, opt), 0)
			return nil
		}
		// Best-effort attribution: the adversary commits to the earliest
		// candidate even under ambiguity (the strict confident-only rate
		// is near zero everywhere — see package timing tests).
		add(perMin, seriesTraced(frac, opt), float64(score.GuessCorrect)/float64(score.Exits))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
