package tap

import (
	"testing"
)

func TestInjectDroppersAndProbe(t *testing.T) {
	n, err := New(Options{Nodes: 300, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := n.NewClient("x")
	if err := c.DeployAnchors(10); err != nil {
		t.Fatal(err)
	}
	tun, err := c.NewTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ProbeTunnel(tun); err != nil {
		t.Fatalf("healthy tunnel failed probe: %v", err)
	}
	// Everyone drops: probes must fail.
	if got := n.InjectDroppers(1.0); got != 300 {
		t.Fatalf("droppers = %d", got)
	}
	if err := c.ProbeTunnel(tun); err == nil {
		t.Fatalf("probe passed through an all-dropping network")
	}
	// Clear the injection: healthy again.
	n.InjectDroppers(0)
	if err := c.ProbeTunnel(tun); err != nil {
		t.Fatalf("probe after clearing droppers: %v", err)
	}
}

func TestTunnelMonitorPublicAPI(t *testing.T) {
	n, err := New(Options{Nodes: 300, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := n.NewClient("x")
	if err := c.DeployAnchors(10); err != nil {
		t.Fatal(err)
	}
	m, err := c.NewTunnelMonitor(3)
	if err != nil {
		t.Fatal(err)
	}
	m.RefreshEvery = 3
	first := m.Tunnel()
	for i := 0; i < 6; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Refreshed != 2 {
		t.Fatalf("refreshed = %d, want 2", m.Refreshed)
	}
	if m.Tunnel() == first {
		t.Fatalf("monitor never rotated the tunnel")
	}
}

func TestBaselineSessionPublicAPI(t *testing.T) {
	n, err := New(Options{Nodes: 300, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	server := KeyOf("srv")
	fsess, err := OpenBaselineSession(n, server, 0) // default length
	if err != nil {
		t.Fatal(err)
	}
	resp, err := fsess.Exchange([]byte("x"), func(req []byte) []byte { return req })
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "x" {
		t.Fatalf("resp %q", resp)
	}
}

func TestChurnWaveWithNetworkDetaches(t *testing.T) {
	// With the simulated network enabled, churned-out nodes must be
	// detached so in-flight packets toward them drop.
	n, err := New(Options{Nodes: 200, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	before := n.Size()
	n.ChurnWave(15, 15)
	if n.Size() != before {
		t.Fatalf("population changed")
	}
	// A timed transfer still works afterwards (handlers for joiners were
	// attached, dead addresses detached).
	c, _ := n.NewClient("x")
	if err := c.DeployAnchors(8); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TimedTransfer(TAPBasic, KeyOf("d"), 10_000, 3); err != nil {
		t.Fatal(err)
	}
}

func TestFailFractionWithNetwork(t *testing.T) {
	n, err := New(Options{Nodes: 200, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.FailFraction(0.25); got != 50 {
		t.Fatalf("failed %d", got)
	}
	if n.Size() != 150 {
		t.Fatalf("size %d", n.Size())
	}
}

func TestSecureLookupCleanNetwork(t *testing.T) {
	n, err := New(Options{Nodes: 400, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := n.NewClient("x")
	key := KeyOf("some-key")
	res, err := c.SecureLookup(key, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Owner != n.OwnerOf(key) {
		t.Fatalf("secure lookup returned %s, owner is %s", res.Owner.Short(), n.OwnerOf(key).Short())
	}
	if res.Attempts != 1 {
		t.Fatalf("clean network needed %d attempts", res.Attempts)
	}
}

func TestSecureLookupWithCorruptRouters(t *testing.T) {
	n, err := New(Options{Nodes: 500, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.CorruptRouters(0.15); got != 75 {
		t.Fatalf("corrupted %d routers", got)
	}
	c, _ := n.NewClient("x")
	honest, total := 0, 0
	for i := 0; i < 60; i++ {
		key := KeyOf("k" + string(rune('a'+i)))
		res, err := c.SecureLookup(key, true)
		if err != nil {
			continue // censored lookups are possible; not counted
		}
		total++
		if res.Owner == n.OwnerOf(key) {
			honest++
		}
	}
	if total == 0 {
		t.Fatal("all lookups censored at p=0.15?")
	}
	if float64(honest) < 0.85*float64(total) {
		t.Fatalf("only %d/%d paranoid lookups honest at p=0.15", honest, total)
	}
}
