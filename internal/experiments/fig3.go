package experiments

import (
	"fmt"

	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/trace"
)

// Fig3Params configures Figure 3: "the fraction of tunnels that are
// corrupted as a function of the fraction of nodes that are malicious",
// with replication factor k=3 and tunnel length 5.
type Fig3Params struct {
	N       int
	Tunnels int
	Length  int
	K       int
	Fracs   []float64 // malicious fractions p
	Trials  int
	Seed    uint64
}

func (p Fig3Params) withDefaults() Fig3Params {
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
	if len(p.Fracs) == 0 {
		for f := 0.02; f < 0.31; f += 0.02 {
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

// SeriesCorrupted is the corrupted-fraction series name.
const SeriesCorrupted = "corrupted"

// SeriesFirstTail is the secondary case-2 metric (first and tail hop nodes
// malicious), reported alongside though the paper's plot shows case 1.
const SeriesFirstTail = "first+tail"

// Fig3 runs the experiment. Fractions are swept *ascending within one
// world per trial*: the collusion only ever grows, so each step tops up
// the same adversary — equivalent to independent draws for the mean, and
// 10× cheaper at the paper's network size.
func Fig3(p Fig3Params) (*trace.Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	fr := ascending(p.Fracs)
	tbl := trace.NewTable(
		fmt.Sprintf("Fig 3: corrupted tunnels vs malicious fraction (N=%d, tunnels=%d, l=%d, k=%d, trials=%d)",
			p.N, p.Tunnels, p.Length, p.K, p.Trials),
		"p", SeriesCorrupted, SeriesFirstTail)
	root := rng.New(p.Seed)
	err := runTrials(tbl, 1, p.Trials, func(_, trial int, mem *pastry.Scratch, add addFn) error {
		stream := root.SplitN("fig3", trial)
		w, err := BuildWorldIn(mem, p.N, p.K, stream.Split("world"))
		if err != nil {
			return err
		}
		ts, err := DeployTunnels(w, p.Tunnels, p.Length, stream.Split("tunnels"))
		if err != nil {
			return err
		}
		mark := stream.Split("mark")
		for _, f := range fr {
			w.Col.MarkCount(int(f*float64(p.N)), mark)
			add(f, SeriesCorrupted, w.Col.CorruptionRate(ts.Tunnels))
			ftc := 0
			for _, t := range ts.Tunnels {
				if w.Col.FirstTailCompromised(t, w.Dir) {
					ftc++
				}
			}
			add(f, SeriesFirstTail, float64(ftc)/float64(len(ts.Tunnels)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// ascending returns a sorted copy of fracs.
func ascending(fracs []float64) []float64 {
	out := append([]float64(nil), fracs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
