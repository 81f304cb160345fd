// Package detect addresses the second limitation the paper lists for
// itself: "TAP does not have a mechanism to detect corrupted/malicious
// tunnels. It requires users to reform their tunnels periodically ... In
// our next steps, we hope to address these issues."
//
// Two facts shape what detection can and cannot do:
//
//   - Layers are authenticated (AES-GCM), so a misbehaving hop
//     cannot modify traffic undetectably — it can only *drop* it. Drops
//     are observable end-to-end: the initiator probes its own tunnel by
//     sending itself a nonce through it and waiting for the echo.
//   - A *quietly* corrupted tunnel — every hop anchor leaked to a passive
//     colluding adversary — is indistinguishable from a healthy one by
//     any probe. Against that, the only defense remains the paper's
//     periodic refresh, which the Monitor automates.
//
// Prober implements the active check; Monitor combines probing with the
// refresh policy into the tunnel lifecycle manager the paper sketches.
package detect

import (
	"bytes"
	"errors"
	"fmt"

	"tap/internal/core"
	"tap/internal/rng"
)

// Prober sends end-to-end self-probes through tunnels.
type Prober struct {
	svc    *core.Service
	stream *rng.Stream

	// Probes and Failures count lifetime activity.
	Probes   int
	Failures int
}

// NewProber returns a prober drawing nonces from stream.
func NewProber(svc *core.Service, stream *rng.Stream) *Prober {
	return &Prober{svc: svc, stream: stream}
}

// ErrProbeFailed reports an unhealthy tunnel: the probe did not come back
// intact. The wrapped cause distinguishes a lost anchor (re-form
// immediately) from a drop (hop misbehaving or transient).
var ErrProbeFailed = errors.New("detect: tunnel probe failed")

// Probe pushes a random nonce through the tunnel addressed to an id the
// initiator itself owns, and verifies the nonce returns intact. In
// deployment the failure signal is a timeout; the walker surfaces the
// cause directly, which tests assert on.
func (p *Prober) Probe(in *core.Initiator, t *core.Tunnel) error {
	p.Probes++
	nonce := make([]byte, 32)
	p.stream.Bytes(nonce)
	// The destination is a bid: the exit hop routes the payload straight
	// back to the initiator's node, closing the loop without involving
	// any cooperating responder.
	bid := in.NewBid()
	env, err := core.BuildForward(t, nil, bid, nonce, p.stream)
	if err != nil {
		p.Failures++
		return fmt.Errorf("%w: %v", ErrProbeFailed, err)
	}
	res, err := in.Service().DeliverForward(in.Node().Ref().Addr, env)
	if err != nil {
		p.Failures++
		return fmt.Errorf("%w: %v", ErrProbeFailed, err)
	}
	if res.DestNode.ID != in.Node().ID() {
		p.Failures++
		return fmt.Errorf("%w: probe landed on %s", ErrProbeFailed, res.DestNode.ID.Short())
	}
	if !bytes.Equal(res.Payload, nonce) {
		p.Failures++
		return fmt.Errorf("%w: probe payload corrupted", ErrProbeFailed)
	}
	return nil
}

// Monitor manages one logical tunnel slot for an initiator: it probes
// before use, replaces broken tunnels immediately, and refreshes healthy
// ones on a schedule (the paper's Figure 5 policy) so a quietly
// corrupted tunnel is retired before it accumulates much traffic.
type Monitor struct {
	in     *core.Initiator
	prober *Prober
	length int

	// RefreshEvery retires the tunnel after this many ticks even when
	// healthy. Zero disables scheduled refresh (probe-only mode).
	RefreshEvery int
	// ProbesPerTick is how many probes each Tick spends. More probes
	// catch lower drop rates: a hop dropping with probability q survives
	// one tick with (1-q)^ProbesPerTick.
	ProbesPerTick int

	tunnel    *core.Tunnel
	age       int
	Replaced  int // tunnels replaced after failed probes
	Refreshed int // tunnels retired by the schedule
}

// NewMonitor creates a monitor managing tunnels of the given length. The
// initiator's pool must be able to sustain a tunnel (length anchors, plus
// replacements over time — the monitor deploys replacements itself).
func NewMonitor(in *core.Initiator, prober *Prober, length int) (*Monitor, error) {
	m := &Monitor{
		in:            in,
		prober:        prober,
		length:        length,
		RefreshEvery:  10,
		ProbesPerTick: 1,
	}
	if err := m.replace(false); err != nil {
		return nil, err
	}
	return m, nil
}

// Tunnel returns the currently managed tunnel.
func (m *Monitor) Tunnel() *core.Tunnel { return m.tunnel }

// Age returns ticks since the current tunnel was formed.
func (m *Monitor) Age() int { return m.age }

// replace retires the current tunnel (if any) and forms a fresh one,
// deploying replacement anchors to keep the pool at strength.
func (m *Monitor) replace(scheduled bool) error {
	if m.tunnel != nil {
		if err := m.in.DeleteAnchors(m.tunnel); err != nil {
			return err
		}
		if scheduled {
			m.Refreshed++
		} else {
			m.Replaced++
		}
	}
	if need := m.length - m.in.PoolSize(); need > 0 {
		if err := m.in.DeployDirect(need); err != nil {
			return err
		}
	}
	t, err := m.in.FormTunnel(m.length)
	if err != nil {
		return err
	}
	m.tunnel = t
	m.age = 0
	return nil
}

// Tick advances the monitor one time unit: probe the tunnel (replacing it
// on failure, retrying until a healthy tunnel is found or attempts run
// out) and apply the scheduled refresh.
func (m *Monitor) Tick() error {
	m.age++
	const maxReplacements = 8
	for attempt := 0; ; attempt++ {
		healthy := true
		for i := 0; i < m.ProbesPerTick; i++ {
			if err := m.prober.Probe(m.in, m.tunnel); err != nil {
				healthy = false
				break
			}
		}
		if healthy {
			break
		}
		if attempt >= maxReplacements {
			return fmt.Errorf("detect: no healthy tunnel after %d replacements", maxReplacements)
		}
		if err := m.replace(false); err != nil {
			return err
		}
	}
	if m.RefreshEvery > 0 && m.age >= m.RefreshEvery {
		return m.replace(true)
	}
	return nil
}
