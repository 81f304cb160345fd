package experiments

import (
	"errors"
	"fmt"

	"tap/internal/app/session"
	"tap/internal/churn"
	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/trace"
)

// ExtSessionParams configures the session-survival experiment: the
// paper's motivating scenario ("long-standing remote login sessions")
// quantified. A session is `Exchanges` request/response round trips with
// churn interleaved between them; it survives if every exchange
// succeeds. TAP sessions ride hopid tunnels; baseline sessions ride
// fixed-node tunnels.
type ExtSessionParams struct {
	N         int
	Length    int
	Exchanges int
	// ChurnRates are the fraction of the network replaced (leave+join)
	// between consecutive exchanges.
	ChurnRates []float64
	Sessions   int // sessions measured per point per trial
	Trials     int
	Seed       uint64
}

func (p ExtSessionParams) withDefaults() ExtSessionParams {
	if p.N == 0 {
		p.N = 1500
	}
	if p.Length == 0 {
		p.Length = 3
	}
	if p.Exchanges == 0 {
		p.Exchanges = 20
	}
	if len(p.ChurnRates) == 0 {
		p.ChurnRates = []float64{0.002, 0.005, 0.01, 0.02, 0.05}
	}
	if p.Sessions == 0 {
		p.Sessions = 30
	}
	if p.Trials == 0 {
		p.Trials = 3
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Series names for the session experiment.
const (
	SeriesTAPSession   = "TAP"
	SeriesFixedSession = "fixed-node"
)

// ExtSession measures the fraction of sessions that complete all
// exchanges, per churn rate, for both tunnel designs.
func ExtSession(p ExtSessionParams) (*trace.Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	tbl := trace.NewTable(
		fmt.Sprintf("Ext: session survival vs churn rate (N=%d, l=%d, %d exchanges, %d sessions, trials=%d)",
			p.N, p.Length, p.Exchanges, p.Sessions, p.Trials),
		"churn/exchange", SeriesTAPSession, SeriesFixedSession)
	root := rng.New(p.Seed)
	echo := func(req []byte) []byte { return req }
	err := runTrials(tbl, len(p.ChurnRates), p.Trials, func(ri, trial int, mem *pastry.Scratch, add addFn) error {
		rate := p.ChurnRates[ri]
		stream := root.SplitN(fmt.Sprintf("extsess-r%d", ri), trial)
		w, err := BuildWorldIn(mem, p.N, 3, stream.Split("world"))
		if err != nil {
			return err
		}
		wave := int(rate * float64(p.N))
		if wave < 1 {
			wave = 1
		}

		tapOK, fixedOK := 0, 0
		for sIdx := 0; sIdx < p.Sessions; sIdx++ {
			ss := stream.SplitN("session", sIdx)
			node := w.OV.RandomLive(ss)
			in, err := core.NewInitiator(w.Svc, node, ss.Split("init"))
			if err != nil {
				return err
			}
			if err := in.DeployDirect(2 * p.Length); err != nil {
				return err
			}
			var server id.ID
			ss.Bytes(server[:])
			tapSess, err := session.Open(in, server, p.Length, ss.Split("tap"))
			if err != nil {
				return err
			}
			fixSess, err := session.OpenFixed(w.Svc, server, p.Length, ss.Split("fixed"))
			if err != nil {
				return err
			}
			// The initiator's own node is pinned: the experiment isolates
			// path survival, not endpoint survival.
			benign := func(a simnet.Addr) bool { return a != node.Ref().Addr }

			tapAlive, fixAlive := true, true
			for e := 0; e < p.Exchanges; e++ {
				churn.Wave(w.OV, wave, wave, ss.SplitN("wave", e), benign)
				if tapAlive {
					if _, err := tapSess.Exchange([]byte("x"), echo); err != nil {
						if !errors.Is(err, session.ErrSessionBroken) && !errors.Is(err, session.ErrReplyLost) {
							return fmt.Errorf("experiments: ext-session: unexpected TAP error: %w", err)
						}
						tapAlive = false
					}
				}
				if fixAlive {
					if _, err := fixSess.Exchange([]byte("x"), echo); err != nil {
						if !errors.Is(err, core.ErrRelayDead) {
							return fmt.Errorf("experiments: ext-session: unexpected baseline error: %w", err)
						}
						fixAlive = false
					}
				}
				if !tapAlive && !fixAlive {
					break
				}
			}
			if tapAlive {
				tapOK++
			}
			if fixAlive {
				fixedOK++
			}
		}
		add(rate, SeriesTAPSession, float64(tapOK)/float64(p.Sessions))
		add(rate, SeriesFixedSession, float64(fixedOK)/float64(p.Sessions))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
