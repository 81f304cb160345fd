package experiments

import (
	"fmt"

	"tap/internal/churn"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/trace"
)

// Fig5Params configures Figure 5: corrupted tunnels over time under
// churn, k=3 and p kept at 0.1. Per time unit, 100 benign nodes leave and
// 100 join; malicious nodes "try to stay in the system as long as
// possible" and accumulate anchors through migration. The un-refreshed
// series keeps the original 5,000 tunnels throughout; the refreshed series
// replaces all tunnels with fresh anchors every unit.
type Fig5Params struct {
	N            int
	Tunnels      int
	Length       int
	K            int
	Malicious    float64
	Units        int
	LeavePerUnit int
	JoinPerUnit  int
	Trials       int
	Seed         uint64
}

func (p Fig5Params) withDefaults() Fig5Params {
	if p.N == 0 {
		p.N = 10_000
	}
	if p.Tunnels == 0 {
		p.Tunnels = 5_000
	}
	if p.Length == 0 {
		p.Length = 5
	}
	if p.K == 0 {
		p.K = 3
	}
	if p.Malicious == 0 {
		p.Malicious = 0.1
	}
	if p.Units == 0 {
		p.Units = 20
	}
	if p.LeavePerUnit == 0 {
		p.LeavePerUnit = 100
	}
	if p.JoinPerUnit == 0 {
		p.JoinPerUnit = 100
	}
	if p.Trials == 0 {
		p.Trials = 3
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Series names for Figure 5.
const (
	SeriesUnrefreshed = "un-refreshed"
	SeriesRefreshed   = "refreshed"
)

// Fig5 runs the churn experiment and reports the corrupted fraction after
// each time unit for both policies.
func Fig5(p Fig5Params) (*trace.Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	tbl := trace.NewTable(
		fmt.Sprintf("Fig 5: corrupted tunnels over time under churn (N=%d, tunnels=%d, l=%d, k=%d, p=%.2f, %d+%d per unit, trials=%d)",
			p.N, p.Tunnels, p.Length, p.K, p.Malicious, p.LeavePerUnit, p.JoinPerUnit, p.Trials),
		"time", SeriesUnrefreshed, SeriesRefreshed)
	root := rng.New(p.Seed)
	err := runTrials(tbl, 1, p.Trials, func(_, trial int, mem *pastry.Scratch, add addFn) error {
		stream := root.SplitN("fig5", trial)
		w, err := BuildWorldIn(mem, p.N, p.K, stream.Split("world"))
		if err != nil {
			return err
		}
		w.Col.MarkFraction(p.Malicious, stream.Split("mark"))
		benign := func(a simnet.Addr) bool { return !w.Col.IsMalicious(a) }

		// Both populations deploy after the adversary exists, so their
		// unit-0 corruption reflects deployment-time leakage alone.
		unrefreshed, err := DeployTunnels(w, p.Tunnels, p.Length, stream.Split("unrefreshed"))
		if err != nil {
			return err
		}
		refreshed, err := DeployTunnels(w, p.Tunnels, p.Length, stream.SplitN("refreshed", 0))
		if err != nil {
			return err
		}

		add(0, SeriesUnrefreshed, w.Col.CorruptionRate(unrefreshed.Tunnels))
		add(0, SeriesRefreshed, w.Col.CorruptionRate(refreshed.Tunnels))

		for unit := 1; unit <= p.Units; unit++ {
			churn.Wave(w.OV, p.LeavePerUnit, p.JoinPerUnit, stream.SplitN("wave", unit), benign)

			// The original tunnels keep aging.
			add(float64(unit), SeriesUnrefreshed, w.Col.CorruptionRate(unrefreshed.Tunnels))
			// The refreshed population was rebuilt at the start of this
			// unit, so it experienced exactly one unit of churn.
			add(float64(unit), SeriesRefreshed, w.Col.CorruptionRate(refreshed.Tunnels))

			// Refresh for the next unit: owners delete their anchors with
			// the password proofs and deploy fresh ones.
			for i, in := range refreshed.Initiators {
				if err := in.DeleteAnchors(refreshed.Tunnels[i]); err != nil {
					return fmt.Errorf("experiments: refreshing tunnel %d: %w", i, err)
				}
				if err := in.DeployDirect(p.Length); err != nil {
					return err
				}
				tun, err := in.FormTunnel(p.Length)
				if err != nil {
					return err
				}
				refreshed.Tunnels[i] = tun
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
