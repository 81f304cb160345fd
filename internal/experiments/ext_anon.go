package experiments

import (
	"fmt"

	"tap/internal/anonmetrics"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/trace"
)

// ExtAnonParams configures the anonymity-degree experiment: the
// entropy-based degree of initiator anonymity (Serjantov/Danezis metric)
// as the collusion grows — §6's informal analysis as a curve.
type ExtAnonParams struct {
	N       int `count:""`
	Tunnels int `count:""`
	Length  int
	K       int `count:""`
	Fracs   []float64
	Trials  int `count:""`
	Seed    uint64
}

func (p ExtAnonParams) withDefaults() ExtAnonParams {
	if p.N == 0 {
		p.N = 2000
	}
	if p.Tunnels == 0 {
		p.Tunnels = 500
	}
	if p.Length == 0 {
		p.Length = 5
	}
	if p.K == 0 {
		p.K = 3
	}
	if len(p.Fracs) == 0 {
		p.Fracs = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3}
	}
	if p.Trials == 0 {
		p.Trials = 3
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Series names for the anonymity experiment.
const (
	SeriesDegree     = "degree_of_anonymity"
	SeriesIdentified = "identified"
)

// ExtAnon sweeps the malicious fraction and reports the mean degree of
// anonymity across the tunnel population, plus the fraction of tunnels
// whose initiator is fully identified (degree zero — the complement view
// of Figure 3's corruption rate).
func ExtAnon(p ExtAnonParams) (*trace.Table, error) {
	if err := refuseNegative("ext-anon", p); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	fr := ascending(p.Fracs)
	tbl := trace.NewTable(
		fmt.Sprintf("Ext: degree of initiator anonymity vs malicious fraction (N=%d, tunnels=%d, l=%d, k=%d, trials=%d)",
			p.N, p.Tunnels, p.Length, p.K, p.Trials),
		"p", SeriesDegree, SeriesIdentified)
	root := rng.New(p.Seed)
	err := runTrials(tbl, 1, p.Trials, func(_, trial int, mem *pastry.Scratch, add addFn) error {
		stream := root.SplitN("extanon", trial)
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
			n := w.OV.Size()
			add(f, SeriesDegree, anonmetrics.MeanDegree(w.Col, ts.Tunnels, n))
			identified := 0
			for _, t := range ts.Tunnels {
				if anonmetrics.DegreeOfAnonymity(w.Col, t, n) == 0 {
					identified++
				}
			}
			add(f, SeriesIdentified, float64(identified)/float64(len(ts.Tunnels)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
