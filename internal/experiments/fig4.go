package experiments

import (
	"fmt"

	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/trace"
)

// Fig4aParams configures Figure 4(a): corrupted tunnels vs replication
// factor k, at a fixed malicious fraction p=0.1. "As the replication
// factor increases, the fraction of tunnels that are corrupted increases"
// — availability's price.
type Fig4aParams struct {
	N         int `count:""`
	Tunnels   int `count:""`
	Length    int
	Ks        []int
	Malicious float64
	Trials    int `count:""`
	Seed      uint64
}

func (p Fig4aParams) withDefaults() Fig4aParams {
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
		p.Ks = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if p.Malicious == 0 {
		p.Malicious = 0.1
	}
	if p.Trials == 0 {
		p.Trials = 3
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Fig4a runs the replication-factor sweep. Each k needs its own world
// (replication is a storage-layer parameter).
func Fig4a(p Fig4aParams) (*trace.Table, error) {
	if err := refuseNegative("fig4a", p); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	tbl := trace.NewTable(
		fmt.Sprintf("Fig 4a: corrupted tunnels vs replication factor (N=%d, tunnels=%d, l=%d, p=%.2f, trials=%d)",
			p.N, p.Tunnels, p.Length, p.Malicious, p.Trials),
		"k", SeriesCorrupted)
	root := rng.New(p.Seed)
	err := runTrials(tbl, len(p.Ks), p.Trials, func(ki, trial int, mem *pastry.Scratch, add addFn) error {
		k := p.Ks[ki]
		stream := root.SplitN(fmt.Sprintf("fig4a-k%d", k), trial)
		w, err := BuildWorldIn(mem, p.N, k, stream.Split("world"))
		if err != nil {
			return err
		}
		ts, err := DeployTunnels(w, p.Tunnels, p.Length, stream.Split("tunnels"))
		if err != nil {
			return err
		}
		w.Col.MarkFraction(p.Malicious, stream.Split("mark"))
		add(float64(k), SeriesCorrupted, w.Col.CorruptionRate(ts.Tunnels))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// Fig4bParams configures Figure 4(b): corrupted tunnels vs tunnel length,
// k=3, p=0.1. "The fraction decreases with the increasing tunnel length,
// and the tunnel length of 5 catches the knee of the curve."
type Fig4bParams struct {
	N         int `count:""`
	Tunnels   int `count:""`
	Lengths   []int
	K         int `count:""`
	Malicious float64
	Trials    int `count:""`
	Seed      uint64
}

func (p Fig4bParams) withDefaults() Fig4bParams {
	if p.N == 0 {
		p.N = 10_000
	}
	if p.Tunnels == 0 {
		p.Tunnels = 5_000
	}
	if len(p.Lengths) == 0 {
		p.Lengths = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if p.K == 0 {
		p.K = 3
	}
	if p.Malicious == 0 {
		p.Malicious = 0.1
	}
	if p.Trials == 0 {
		p.Trials = 3
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Fig4b runs the tunnel-length sweep. Lengths share one world per trial:
// tunnel length is owner-side, so each length deploys its own tunnel
// population into the same network, before the adversary is marked.
func Fig4b(p Fig4bParams) (*trace.Table, error) {
	if err := refuseNegative("fig4b", p); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	tbl := trace.NewTable(
		fmt.Sprintf("Fig 4b: corrupted tunnels vs tunnel length (N=%d, tunnels=%d, k=%d, p=%.2f, trials=%d)",
			p.N, p.Tunnels, p.K, p.Malicious, p.Trials),
		"l", SeriesCorrupted)
	root := rng.New(p.Seed)
	err := runTrials(tbl, 1, p.Trials, func(_, trial int, mem *pastry.Scratch, add addFn) error {
		stream := root.SplitN("fig4b", trial)
		w, err := BuildWorldIn(mem, p.N, p.K, stream.Split("world"))
		if err != nil {
			return err
		}
		sets := make(map[int]*TunnelSet, len(p.Lengths))
		for _, l := range p.Lengths {
			ts, err := DeployTunnels(w, p.Tunnels, l, stream.SplitN("tunnels", l))
			if err != nil {
				return err
			}
			sets[l] = ts
		}
		w.Col.MarkFraction(p.Malicious, stream.Split("mark"))
		for _, l := range p.Lengths {
			add(float64(l), SeriesCorrupted, w.Col.CorruptionRate(sets[l].Tunnels))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
