package timing

import (
	"testing"
	"time"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/past"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
)

type sys struct {
	ov     *pastry.Overlay
	dir    *tha.Directory
	svc    *core.Service
	kernel *simnet.Kernel
	net    *simnet.Network
	eng    *core.NetEngine
	root   *rng.Stream
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
	kernel := simnet.NewKernel()
	kernel.MaxSteps = 10_000_000
	net := simnet.NewNetwork(kernel, simnet.DefaultLinkModel(seed), ov.NumAddrs())
	eng := core.NewNetEngine(svc, net)
	return &sys{ov: ov, dir: dir, svc: svc, kernel: kernel, net: net, eng: eng, root: root}
}

// launch starts one tunnel flow at simulated time `at`, returning the
// initiator address by flow bookkeeping.
func (s *sys) launch(t testing.TB, label string, at simnet.Time, l int, trueSource map[uint64]simnet.Addr, flowCounter *uint64) {
	t.Helper()
	s.kernel.At(at, func() {
		node := s.ov.RandomLive(s.root.Split("pick-" + label))
		in, err := core.NewInitiator(s.svc, node, s.root.Split("init-"+label))
		if err != nil {
			t.Error(err)
			return
		}
		if err := in.DeployDirect(l); err != nil {
			t.Error(err)
			return
		}
		tun, err := in.FormTunnel(l)
		if err != nil {
			t.Error(err)
			return
		}
		var dest id.ID
		s.root.Split("dest-" + label).Bytes(dest[:])
		env, err := core.BuildForward(tun, nil, dest, make([]byte, 2000), s.root.Split("b-"+label))
		if err != nil {
			t.Error(err)
			return
		}
		flow := s.eng.SendForward(node.Ref().Addr, env, nil)
		trueSource[flow] = node.Ref().Addr
		*flowCounter = flow
	})
}

func TestSingleFlowFullyObservedIsCorrelated(t *testing.T) {
	// Adversary controls every node: it sees the entry and the exit of
	// the only flow in the system, and timing nails it.
	s := newSys(t, 200, 1)
	obs := NewObserver(func(simnet.Addr) bool { return true })
	s.eng.Tap = obs
	trueSource := map[uint64]simnet.Addr{}
	var flows uint64
	s.launch(t, "a", 0, 3, trueSource, &flows)
	if err := s.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.Exits() != 1 {
		t.Fatalf("exits observed: %d", obs.Exits())
	}
	matches := obs.Correlate(time.Minute)
	score := Evaluate(obs, matches, trueSource)
	if score.Confident != 1 || score.Correct != 1 {
		t.Fatalf("lone fully-observed flow not correlated: %+v", score)
	}
}

func TestNoObservationsNoMatches(t *testing.T) {
	s := newSys(t, 150, 2)
	obs := NewObserver(func(simnet.Addr) bool { return false })
	s.eng.Tap = obs
	trueSource := map[uint64]simnet.Addr{}
	var flows uint64
	s.launch(t, "a", 0, 3, trueSource, &flows)
	if err := s.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.Receptions() != 0 || obs.Exits() != 0 {
		t.Fatalf("benign wiretap recorded something")
	}
	if got := obs.Correlate(time.Minute); len(got) != 0 {
		t.Fatalf("matches without observations")
	}
}

func TestConcurrencyCreatesAmbiguity(t *testing.T) {
	// Ten flows launched within one window: the all-seeing adversary's
	// matches must be flagged ambiguous (distinct predecessors in every
	// window), driving confident correlations down.
	s := newSys(t, 300, 3)
	obs := NewObserver(func(simnet.Addr) bool { return true })
	s.eng.Tap = obs
	trueSource := map[uint64]simnet.Addr{}
	var flows uint64
	for i := 0; i < 10; i++ {
		s.launch(t, string(rune('a'+i)), simnet.Time(i)*simnet.Time(50*time.Millisecond), 3, trueSource, &flows)
	}
	if err := s.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	matches := obs.Correlate(10 * time.Second)
	score := Evaluate(obs, matches, trueSource)
	if score.Exits != 10 {
		t.Fatalf("exits %d", score.Exits)
	}
	if score.Confident > 2 {
		t.Fatalf("heavy concurrency left %d confident matches (want ≈0)", score.Confident)
	}
}

func TestIsolatedFlowsStayVulnerable(t *testing.T) {
	// The same ten flows spaced far apart: every window holds one flow,
	// so the all-seeing adversary correlates them all — timing analysis
	// is strong exactly when traffic is sparse.
	s := newSys(t, 300, 4)
	obs := NewObserver(func(simnet.Addr) bool { return true })
	s.eng.Tap = obs
	trueSource := map[uint64]simnet.Addr{}
	var flows uint64
	for i := 0; i < 10; i++ {
		s.launch(t, string(rune('a'+i)), simnet.Time(i)*simnet.Time(2*time.Minute), 3, trueSource, &flows)
	}
	if err := s.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	matches := obs.Correlate(time.Minute)
	score := Evaluate(obs, matches, trueSource)
	if score.Correct < 8 {
		t.Fatalf("sparse traffic should correlate: %+v", score)
	}
	if score.FalseHits > score.Correct/4 {
		t.Fatalf("too many false hits: %+v", score)
	}
}

func TestPartialCollusionSeesFewerExits(t *testing.T) {
	// A 10% adversary observes roughly 10% of tails; its opportunities
	// shrink accordingly.
	s := newSys(t, 400, 5)
	mal := map[simnet.Addr]struct{}{}
	stream := s.root.Split("mark")
	refs := s.ov.LiveRefs()
	for _, idx := range stream.PermFirstK(len(refs), len(refs)/10) {
		mal[refs[idx].Addr] = struct{}{}
	}
	obs := NewObserver(func(a simnet.Addr) bool { _, bad := mal[a]; return bad })
	s.eng.Tap = obs
	trueSource := map[uint64]simnet.Addr{}
	var flows uint64
	const total = 30
	for i := 0; i < total; i++ {
		s.launch(t, string(rune('a'+i)), simnet.Time(i)*simnet.Time(90*time.Second), 3, trueSource, &flows)
	}
	if err := s.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.Exits() > total/2 {
		t.Fatalf("10%% adversary observed %d/%d exits", obs.Exits(), total)
	}
	// Whatever it does correlate must still be scored honestly.
	score := Evaluate(obs, obs.Correlate(time.Minute), trueSource)
	if score.Correct+score.FalseHits != score.Confident {
		t.Fatalf("score bookkeeping broken: %+v", score)
	}
}
