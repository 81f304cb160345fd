package detect

import (
	"errors"
	"testing"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/past"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
)

type sys struct {
	ov   *pastry.Overlay
	mgr  *past.Manager
	dir  *tha.Directory
	svc  *core.Service
	root *rng.Stream
}

func newSys(t testing.TB, n int, seed uint64) *sys {
	t.Helper()
	root := rng.New(seed)
	ov, err := pastry.Build(pastry.DefaultConfig(), n, root.Split("overlay"))
	if err != nil {
		t.Fatal(err)
	}
	mgr := past.NewManager(ov, 3)
	dir := tha.NewDirectory(ov, mgr)
	svc := core.NewService(ov, dir, root.Split("svc"))
	return &sys{ov: ov, mgr: mgr, dir: dir, svc: svc, root: root}
}

func (s *sys) initiator(t testing.TB, anchors int) *core.Initiator {
	t.Helper()
	node := s.ov.RandomLive(s.root.Split("pick"))
	in, err := core.NewInitiator(s.svc, node, s.root.Split("init"))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.DeployDirect(anchors); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestProbeHealthyTunnel(t *testing.T) {
	s := newSys(t, 300, 1)
	in := s.initiator(t, 10)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProber(s.svc, s.root.Split("probe"))
	for i := 0; i < 5; i++ {
		if err := p.Probe(in, tun); err != nil {
			t.Fatalf("probe %d failed on a healthy tunnel: %v", i, err)
		}
	}
	if p.Probes != 5 || p.Failures != 0 {
		t.Fatalf("stats %d/%d", p.Probes, p.Failures)
	}
}

func TestProbeDetectsDroppingHop(t *testing.T) {
	s := newSys(t, 300, 2)
	in := s.initiator(t, 10)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	// The node serving hop 2 drops all tunnel traffic for that hop.
	evil, ok := s.dir.HopNode(tun.Hops[2].HopID)
	if !ok {
		t.Fatal("no hop node")
	}
	evilAddr := evil.Ref().Addr
	evilHop := tun.Hops[2].HopID
	s.svc.HopFilter = func(addr simnet.Addr, hopID id.ID) bool {
		return !(addr == evilAddr && hopID == evilHop)
	}
	p := NewProber(s.svc, s.root.Split("probe"))
	err = p.Probe(in, tun)
	if !errors.Is(err, ErrProbeFailed) {
		t.Fatalf("err = %v, want ErrProbeFailed", err)
	}
	if !errors.Is(err, ErrProbeFailed) || p.Failures != 1 {
		t.Fatalf("failure not recorded")
	}
	// Kill the dropper; its replica successor behaves, so the same
	// tunnel probes healthy again.
	if err := s.ov.Fail(evilAddr); err != nil {
		t.Fatal(err)
	}
	if err := p.Probe(in, tun); err != nil {
		t.Fatalf("probe after dropper death: %v", err)
	}
}

func TestProbeDetectsLostAnchor(t *testing.T) {
	s := newSys(t, 300, 3)
	in := s.initiator(t, 10)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	s.mgr.BeginBatch()
	for _, addr := range s.dir.ReplicaAddrs(tun.Hops[1].HopID) {
		if err := s.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
	}
	s.mgr.EndBatch()
	p := NewProber(s.svc, s.root.Split("probe"))
	err = p.Probe(in, tun)
	if !errors.Is(err, ErrProbeFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestMonitorReplacesBrokenTunnel(t *testing.T) {
	s := newSys(t, 400, 5)
	in := s.initiator(t, 12)
	p := NewProber(s.svc, s.root.Split("probe"))
	m, err := NewMonitor(in, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.RefreshEvery = 0 // probe-only mode
	first := m.Tunnel()

	// Lose an anchor of the current tunnel.
	s.mgr.BeginBatch()
	for _, addr := range s.dir.ReplicaAddrs(first.Hops[0].HopID) {
		if err := s.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
	}
	s.mgr.EndBatch()

	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if m.Replaced != 1 {
		t.Fatalf("replaced = %d, want 1", m.Replaced)
	}
	if m.Tunnel() == first {
		t.Fatalf("broken tunnel not replaced")
	}
	// The replacement is healthy.
	if err := p.Probe(in, m.Tunnel()); err != nil {
		t.Fatalf("replacement unhealthy: %v", err)
	}
}

func TestMonitorScheduledRefresh(t *testing.T) {
	s := newSys(t, 300, 6)
	in := s.initiator(t, 12)
	p := NewProber(s.svc, s.root.Split("probe"))
	m, err := NewMonitor(in, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.RefreshEvery = 4
	seen := map[*core.Tunnel]bool{m.Tunnel(): true}
	for tick := 1; tick <= 12; tick++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
		seen[m.Tunnel()] = true
	}
	if m.Refreshed != 3 {
		t.Fatalf("refreshed = %d, want 3 (every 4 ticks over 12)", m.Refreshed)
	}
	if len(seen) != 4 {
		t.Fatalf("saw %d distinct tunnels, want 4", len(seen))
	}
	if m.Replaced != 0 {
		t.Fatalf("healthy run replaced %d tunnels", m.Replaced)
	}
}

func TestMonitorKeepsPoolAtStrength(t *testing.T) {
	s := newSys(t, 300, 7)
	in := s.initiator(t, 3) // exactly one tunnel's worth
	p := NewProber(s.svc, s.root.Split("probe"))
	m, err := NewMonitor(in, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.RefreshEvery = 1 // refresh every tick: forces redeployment each time
	for tick := 0; tick < 5; tick++ {
		if err := m.Tick(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
	}
	if m.Refreshed != 5 {
		t.Fatalf("refreshed = %d", m.Refreshed)
	}
}

func TestMonitorAgeResetsOnRefresh(t *testing.T) {
	s := newSys(t, 250, 9)
	in := s.initiator(t, 12)
	p := NewProber(s.svc, s.root.Split("probe"))
	m, err := NewMonitor(in, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.RefreshEvery = 3
	if m.Age() != 0 {
		t.Fatalf("fresh monitor age %d", m.Age())
	}
	for i := 1; i <= 2; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
		if m.Age() != i {
			t.Fatalf("age %d after %d ticks", m.Age(), i)
		}
	}
	if err := m.Tick(); err != nil { // third tick refreshes
		t.Fatal(err)
	}
	if m.Age() != 0 {
		t.Fatalf("age %d after scheduled refresh, want 0", m.Age())
	}
}

func TestProbeFailsOnBrokenTunnelBuild(t *testing.T) {
	s := newSys(t, 150, 10)
	in := s.initiator(t, 6)
	p := NewProber(s.svc, s.root.Split("probe"))
	empty := &core.Tunnel{}
	if err := p.Probe(in, empty); !errors.Is(err, ErrProbeFailed) {
		t.Fatalf("err = %v, want ErrProbeFailed", err)
	}
}

func TestMonitorGivesUpWhenEverythingDrops(t *testing.T) {
	s := newSys(t, 200, 8)
	in := s.initiator(t, 12)
	// Every node drops all tunnel traffic.
	s.svc.HopFilter = func(simnet.Addr, id.ID) bool { return false }
	p := NewProber(s.svc, s.root.Split("probe"))
	m, err := NewMonitor(in, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err == nil {
		t.Fatalf("monitor found a healthy tunnel in an all-dropping network")
	}
}
