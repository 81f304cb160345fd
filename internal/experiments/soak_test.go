package experiments

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"testing"

	"tap/internal/churn"
	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/rng"
)

// TestSoakChaos interleaves every operation the system supports —
// membership churn, anchor deployment and deletion, tunnel formation,
// forward and reply traffic, probing, adversary growth — under one
// deterministic random schedule, checking global invariants as it goes.
// The assertions are the system's contracts: no panic, no invariant
// violation, and every delivery failure explained by a lost anchor.
func TestSoakChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	// The whole schedule derives from this one seed: override it via
	// TAP_SOAK_SEED to explore other schedules, and quote the logged seed
	// when reporting a failure so the run reproduces exactly.
	seed := uint64(20040706)
	if env := os.Getenv("TAP_SOAK_SEED"); env != "" {
		parsed, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("TAP_SOAK_SEED=%q: %v", env, err)
		}
		seed = parsed
	}
	t.Logf("soak seed %d (reproduce with TAP_SOAK_SEED=%d)", seed, seed)
	root := rng.New(seed)
	w, err := BuildWorld(250, 3, root.Split("world"))
	if err != nil {
		t.Fatal(err)
	}
	s := root.Split("chaos")
	probe := root.Split("probe")

	type client struct {
		in      *core.Initiator
		tunnels []*core.Tunnel
	}
	var clients []*client
	newClient := func() {
		node := w.OV.RandomLive(s)
		in, err := core.NewInitiator(w.Svc, node, s.SplitN("client", len(clients)))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, &client{in: in})
	}
	for i := 0; i < 5; i++ {
		newClient()
	}

	var (
		sends, sendOK, sendLost int
		probes, probeOK         int
	)
	for step := 0; step < 600; step++ {
		c := clients[s.Intn(len(clients))]
		switch op := s.Intn(10); op {
		case 0: // membership: one join
			w.OV.Join()
		case 1: // membership: one failure (keep a floor)
			if w.OV.Size() > 60 {
				if err := w.OV.Fail(w.OV.RandomLive(s).Ref().Addr); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // membership: a small wave
			churn.Wave(w.OV, 5, 5, s, nil)
		case 3: // deploy anchors
			if err := c.in.DeployDirect(2 + s.Intn(3)); err != nil {
				t.Fatal(err)
			}
		case 4: // form a tunnel if the pool allows
			l := 2 + s.Intn(3)
			if c.in.PoolSize() >= l {
				tun, err := c.in.FormTunnel(l)
				if err != nil {
					t.Fatal(err)
				}
				c.tunnels = append(c.tunnels, tun)
			}
		case 5: // retire a tunnel
			if len(c.tunnels) > 0 {
				idx := s.Intn(len(c.tunnels))
				if err := c.in.DeleteAnchors(c.tunnels[idx]); err != nil {
					t.Fatal(err)
				}
				c.tunnels = append(c.tunnels[:idx], c.tunnels[idx+1:]...)
			}
		case 6, 7: // send through a random live tunnel
			if len(c.tunnels) == 0 || !c.in.Node().Alive() {
				continue
			}
			tun := c.tunnels[s.Intn(len(c.tunnels))]
			var dest id.ID
			s.Bytes(dest[:])
			env, err := core.BuildForward(tun, nil, dest, []byte("chaos"), s)
			if err != nil {
				t.Fatal(err)
			}
			sends++
			if _, err := w.Svc.DeliverForward(c.in.Node().Ref().Addr, env); err != nil {
				if !errors.Is(err, core.ErrHopLost) {
					t.Fatalf("step %d: unexplained delivery failure: %v", step, err)
				}
				sendLost++
			} else {
				sendOK++
			}
		case 8: // probe a tunnel: a nonce addressed to one of the client's own bids
			if len(c.tunnels) > 0 && c.in.Node().Alive() {
				probes++
				tun := c.tunnels[s.Intn(len(c.tunnels))]
				nonce := make([]byte, 32)
				probe.Bytes(nonce)
				if env, err := core.BuildForward(tun, nil, c.in.NewBid(), nonce, probe); err == nil {
					if res, err := w.Svc.DeliverForward(c.in.Node().Ref().Addr, env); err == nil && bytes.Equal(res.Payload, nonce) {
						probeOK++
					}
				}
			}
		case 9: // grow the adversary slightly
			w.Col.MarkCount(w.Col.MaliciousCount()+1, s)
		}

		if step%100 == 99 {
			if err := w.OV.CheckInvariants(); err != nil {
				t.Fatalf("step %d: overlay: %v", step, err)
			}
			if err := w.Mgr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: storage: %v", step, err)
			}
		}
	}
	if sends == 0 || sendOK == 0 {
		t.Fatalf("soak exercised no traffic (sends=%d ok=%d)", sends, sendOK)
	}
	// Sequential churn with k=3 never loses anchors, so every send
	// through a live tunnel must succeed.
	if sendLost != 0 {
		t.Fatalf("%d sends lost under sequential churn (k=3 should never lose anchors)", sendLost)
	}
	t.Logf("soak: %d sends ok, %d of %d probes echoed, overlay size %d, adversary %d, leaks %d",
		sendOK, probeOK, probes, w.OV.Size(), w.Col.MaliciousCount(), w.Col.LeakedCount())
}
