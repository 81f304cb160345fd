package experiments

// Extension experiments: mechanisms the paper names but does not
// evaluate — secure routing (§9), corrupted-tunnel detection (stated
// future work), and the cover-traffic cost argument (§2). They follow the
// same harness conventions as the figure experiments and are wired into
// cmd/tapsim as ext-secroute, ext-detect, and ext-cover.

import (
	"fmt"
	"time"

	"tap/internal/core"
	"tap/internal/cover"
	"tap/internal/detect"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/secroute"
	"tap/internal/simnet"
	"tap/internal/trace"
)

// --- secure routing -----------------------------------------------------------

// ExtSecRouteParams configures the secure-routing experiment: the rate at
// which a benign node resolves the true owner of a key while a fraction
// of routers hijack lookups.
type ExtSecRouteParams struct {
	N       int
	Fracs   []float64 // malicious router fractions
	Lookups int       // lookups per point per trial
	Trials  int
	Seed    uint64
}

func (p ExtSecRouteParams) withDefaults() ExtSecRouteParams {
	if p.N == 0 {
		p.N = 2000
	}
	if len(p.Fracs) == 0 {
		p.Fracs = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3}
	}
	if p.Lookups == 0 {
		p.Lookups = 200
	}
	if p.Trials == 0 {
		p.Trials = 3
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Series names for the secure-routing experiment.
const (
	SeriesNaive    = "single-route"
	SeriesSecure   = "secure"
	SeriesParanoid = "paranoid"
)

// ExtSecRoute measures honest-owner resolution rates for the three
// routing policies.
func ExtSecRoute(p ExtSecRouteParams) (*trace.Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	tbl := trace.NewTable(
		fmt.Sprintf("Ext: secure routing — honest owner resolution vs malicious routers (N=%d, %d lookups, trials=%d)",
			p.N, p.Lookups, p.Trials),
		"p", SeriesNaive, SeriesSecure, SeriesParanoid)
	root := rng.New(p.Seed)
	err := runTrials(tbl, len(p.Fracs), p.Trials, func(fi, trial int, mem *pastry.Scratch, add addFn) error {
		frac := p.Fracs[fi]
		stream := root.SplitN(fmt.Sprintf("extsec-f%d", fi), trial)
		w, err := BuildWorldIn(mem, p.N, 3, stream.Split("world"))
		if err != nil {
			return err
		}
		adv := secroute.NewAdversary()
		adv.MarkFraction(w.OV, frac, stream.Split("mark"))

		policies := []struct {
			name     string
			redunant int
			paranoid bool
		}{
			{SeriesNaive, 0, false},
			{SeriesSecure, 8, false},
			{SeriesParanoid, 8, true},
		}
		keyStream := stream.Split("keys")
		type probe struct {
			src simnet.Addr
			key id.ID
		}
		probes := make([]probe, 0, p.Lookups)
		for len(probes) < p.Lookups {
			src := w.OV.RandomLive(keyStream)
			if adv.IsMalicious(src.Ref().Addr) {
				continue
			}
			var key id.ID
			keyStream.Bytes(key[:])
			probes = append(probes, probe{src.Ref().Addr, key})
		}
		for _, pol := range policies {
			r := secroute.NewRouter(w.OV, adv)
			r.MaxRedundant = pol.redunant
			r.AlwaysVerify = pol.paranoid
			honest := 0
			for _, pr := range probes {
				res, err := r.Lookup(pr.src, pr.key)
				if err == nil && res.Honest {
					honest++
				}
			}
			add(frac, pol.name, float64(honest)/float64(len(probes)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// --- tunnel detection -----------------------------------------------------------

// ExtDetectParams configures the detection experiment: anonymous send
// success with and without a probing monitor while a fraction of nodes
// silently drop tunnel traffic.
type ExtDetectParams struct {
	N      int
	Length int
	Fracs  []float64 // dropper fractions
	Sends  int       // sends per point per trial
	Trials int
	Seed   uint64
}

func (p ExtDetectParams) withDefaults() ExtDetectParams {
	if p.N == 0 {
		p.N = 1500
	}
	if p.Length == 0 {
		p.Length = 5
	}
	if len(p.Fracs) == 0 {
		p.Fracs = []float64{0.02, 0.05, 0.1, 0.15, 0.2}
	}
	if p.Sends == 0 {
		p.Sends = 60
	}
	if p.Trials == 0 {
		p.Trials = 3
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Series names for the detection experiment.
const (
	SeriesUnmanaged = "unmanaged"
	SeriesMonitored = "monitored"
)

// ExtDetect measures end-to-end send success through a fixed tunnel vs a
// monitor-managed tunnel under silent droppers.
func ExtDetect(p ExtDetectParams) (*trace.Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	tbl := trace.NewTable(
		fmt.Sprintf("Ext: tunnel detection — send success vs dropper fraction (N=%d, l=%d, %d sends, trials=%d)",
			p.N, p.Length, p.Sends, p.Trials),
		"p", SeriesUnmanaged, SeriesMonitored)
	root := rng.New(p.Seed)
	err := runTrials(tbl, len(p.Fracs), p.Trials, func(fi, trial int, mem *pastry.Scratch, add addFn) error {
		frac := p.Fracs[fi]
		stream := root.SplitN(fmt.Sprintf("extdet-f%d", fi), trial)
		w, err := BuildWorldIn(mem, p.N, 3, stream.Split("world"))
		if err != nil {
			return err
		}
		// Install droppers.
		droppers := make(map[simnet.Addr]struct{})
		refs := w.OV.LiveRefs()
		for _, idx := range stream.Split("mark").PermFirstK(len(refs), int(frac*float64(len(refs)))) {
			droppers[refs[idx].Addr] = struct{}{}
		}
		w.Svc.HopFilter = func(addr simnet.Addr, _ id.ID) bool {
			_, drop := droppers[addr]
			return !drop
		}

		// The measuring initiator must itself be honest; redraw until it is.
		pick := stream.Split("pick")
		node := w.OV.RandomLive(pick)
		for !w.Svc.HopFilter(node.Ref().Addr, id.ID{}) {
			node = w.OV.RandomLive(pick)
		}
		in, err := core.NewInitiator(w.Svc, node, stream.Split("init"))
		if err != nil {
			return err
		}
		if err := in.DeployDirect(p.Length * 2); err != nil {
			return err
		}

		sendOnce := func(t *core.Tunnel, s *rng.Stream) bool {
			var dest id.ID
			s.Bytes(dest[:])
			env, err := core.BuildForward(t, nil, dest, []byte("m"), s)
			if err != nil {
				return false
			}
			_, err = w.Svc.DeliverForward(node.Ref().Addr, env)
			return err == nil
		}

		// Unmanaged: each send goes through a freshly formed, unvetted
		// tunnel — the success rate is the probability that a blind
		// tunnel avoids every dropper, ≈ (1-p)^l.
		us := stream.Split("unmanaged")
		okU := 0
		for s := 0; s < p.Sends; s++ {
			if err := in.DeployDirect(p.Length); err != nil {
				return err
			}
			blind, err := in.FormTunnel(p.Length)
			if err != nil {
				return err
			}
			if sendOnce(blind, us) {
				okU++
			}
			if err := in.DeleteAnchors(blind); err != nil {
				return err
			}
		}
		add(frac, SeriesUnmanaged, float64(okU)/float64(p.Sends))

		// Monitored: probe-and-replace before each send.
		ms := stream.Split("monitored")
		prober := detect.NewProber(w.Svc, ms.Split("probe"))
		mon, err := detect.NewMonitor(in, prober, p.Length)
		if err != nil {
			return err
		}
		mon.RefreshEvery = 0
		okM := 0
		for s := 0; s < p.Sends; s++ {
			if err := mon.Tick(); err != nil {
				continue // no healthy tunnel found this tick
			}
			if sendOnce(mon.Tunnel(), ms) {
				okM++
			}
		}
		add(frac, SeriesMonitored, float64(okM)/float64(p.Sends))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// --- cover traffic ---------------------------------------------------------------

// ExtCoverParams configures the cover-traffic cost experiment: the
// bandwidth multiplier of constant-rate cover for a fixed anonymous
// workload.
type ExtCoverParams struct {
	N         int
	Rates     []float64 // dummies per second per node (0 = off)
	Transfers int       // real transfers in the workload
	FileBytes int
	Length    int
	Trials    int
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
	if err := p.validate(); err != nil {
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
