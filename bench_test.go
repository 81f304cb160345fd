package tap

// One benchmark per figure of the paper's evaluation (§7), each running a
// scaled-down but structurally complete instance of the corresponding
// experiment from internal/experiments — the same code cmd/tapsim uses at
// full size. Micro-benchmarks and the ablations called out in DESIGN.md §5
// follow.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem ./...

import (
	"testing"

	"tap/internal/core"
	"tap/internal/experiments"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"time"

	"tap/internal/simnet"
	"tap/internal/tha"
)

// --- figure benchmarks --------------------------------------------------------

// BenchmarkFig2TunnelFailure regenerates Figure 2 (tunnel failure vs node
// failure fraction; current tunneling vs TAP k=3 and k=5).
func BenchmarkFig2TunnelFailure(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig2(experiments.Fig2Params{
			N: 600, Tunnels: 120, Length: 5,
			Ks:     []int{3, 5},
			Fracs:  []float64{0.1, 0.2, 0.3, 0.4, 0.5},
			Trials: 1, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Collusion regenerates Figure 3 (corrupted tunnels vs
// malicious fraction, k=3).
func BenchmarkFig3Collusion(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig3(experiments.Fig3Params{
			N: 600, Tunnels: 200, Length: 5, K: 3,
			Fracs:  []float64{0.05, 0.1, 0.2, 0.3},
			Trials: 1, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4aReplicationFactor regenerates Figure 4(a) (corruption vs
// replication factor k at p=0.1).
func BenchmarkFig4aReplicationFactor(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig4a(experiments.Fig4aParams{
			N: 600, Tunnels: 200, Length: 5,
			Ks: []int{1, 2, 3, 4, 5, 6, 7, 8}, Malicious: 0.1,
			Trials: 1, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4bTunnelLength regenerates Figure 4(b) (corruption vs
// tunnel length at p=0.1, k=3).
func BenchmarkFig4bTunnelLength(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig4b(experiments.Fig4bParams{
			N: 600, Tunnels: 200,
			Lengths: []int{1, 2, 3, 4, 5, 6, 7, 8}, K: 3, Malicious: 0.1,
			Trials: 1, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Churn regenerates Figure 5 (corruption over time under
// churn; un-refreshed vs refreshed tunnels).
func BenchmarkFig5Churn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig5(experiments.Fig5Params{
			N: 600, Tunnels: 120, Length: 5, K: 3, Malicious: 0.1,
			Units: 8, LeavePerUnit: 30, JoinPerUnit: 30,
			Trials: 1, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Transfer regenerates Figure 6 (2 Mb transfer time vs
// network size; overt vs TAP_basic vs TAP_opt at l=3 and l=5).
func BenchmarkFig6Transfer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig6(experiments.Fig6Params{
			Sizes: []int{100, 300, 1000}, Lengths: []int{3, 5}, K: 3,
			FileBytes: 250_000, Transfers: 5, Sims: 1, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension benchmarks -------------------------------------------------------

// BenchmarkExtCoverTraffic regenerates the cover-traffic cost table
// (network bytes multiplier vs cover rate) — §2's argument, measured.
func BenchmarkExtCoverTraffic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := experiments.ExtCover(experiments.ExtCoverParams{
			N: 150, Rates: []float64{0, 1, 5}, Transfers: 2, FileBytes: 50_000,
			Length: 3, Trials: 1, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtThroughput regenerates the heavy-traffic streaming table at
// laptop scale: windowed vs stop-and-wait goodput, flow-completion tails,
// and retransmit ratio under loss, with concurrent zipf flows over pooled
// tunnels and churn during the ramp.
func BenchmarkExtThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := experiments.ExtThroughput(experiments.ExtThroughputParams{
			N: 300, Clients: 4, TunnelsPer: 2, Length: 3,
			Flows: 200, FlowBytes: 2048, Dests: 64,
			Windows: []int{1, 8}, LossRates: []float64{0, 0.05},
			ChurnFails: 6, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks --------------------------------------------------------

// BenchmarkAblationReplication sweeps k and reports both sides of the
// availability/anonymity tension on one workload: tunnel failure under
// 30% simultaneous node failure, and tunnel corruption under 10%
// collusion.
func BenchmarkAblationReplication(b *testing.B) {
	for _, k := range []int{1, 3, 5, 8} {
		b.Run(kName(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fail, err := experiments.Fig2(experiments.Fig2Params{
					N: 500, Tunnels: 100, Length: 5, Ks: []int{k},
					Fracs: []float64{0.3}, Trials: 1, Seed: uint64(i) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				corr, err := experiments.Fig4a(experiments.Fig4aParams{
					N: 500, Tunnels: 100, Length: 5, Ks: []int{k},
					Malicious: 0.1, Trials: 1, Seed: uint64(i) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(fail.Mean(0.3, "TAP(k="+itoa(k)+")"), "fail_rate")
					b.ReportMetric(corr.Mean(float64(k), experiments.SeriesCorrupted), "corrupt_rate")
				}
			}
		})
	}
}

// BenchmarkAblationHintStaleness measures the §5 optimization's
// sensitivity to hint staleness: overlay hops per delivery as a function
// of how many hop nodes changed since the hints were refreshed.
func BenchmarkAblationHintStaleness(b *testing.B) {
	for _, stale := range []int{0, 1, 3, 5} {
		b.Run("stale_hops="+itoa(stale), func(b *testing.B) {
			b.ReportAllocs()
			totalHops := 0
			deliveries := 0
			for i := 0; i < b.N; i++ {
				root := rng.New(uint64(i) + 1)
				w, err := experiments.BuildWorld(500, 3, root.Split("world"))
				if err != nil {
					b.Fatal(err)
				}
				node := w.OV.RandomLive(root.Split("pick"))
				in, err := core.NewInitiator(w.Svc, node, root.Split("init"))
				if err != nil {
					b.Fatal(err)
				}
				if err := in.DeployDirect(8); err != nil {
					b.Fatal(err)
				}
				tun, err := in.FormTunnel(5)
				if err != nil {
					b.Fatal(err)
				}
				if err := tun.RefreshHints(w.Svc); err != nil {
					b.Fatal(err)
				}
				// Invalidate `stale` hints by killing those hop nodes.
				for _, h := range tun.Hops[:stale] {
					hn, ok := w.Dir.HopNode(h.HopID)
					if !ok {
						b.Fatal("hop lost")
					}
					if hn.ID() == node.ID() {
						continue
					}
					if err := w.OV.Fail(hn.Ref().Addr); err != nil {
						b.Fatal(err)
					}
				}
				env, err := core.BuildForwardHinted(tun, id.HashString("d"), make([]byte, 100), root.Split("b"))
				if err != nil {
					b.Fatal(err)
				}
				res, err := w.Svc.DeliverForward(node.Ref().Addr, env)
				if err != nil {
					b.Fatal(err)
				}
				totalHops += res.Stats.OverlayHops
				deliveries++
			}
			b.ReportMetric(float64(totalHops)/float64(deliveries), "overlay_hops/delivery")
		})
	}
}

// BenchmarkAblationScatter compares the §3.5 scatter rule against uniform
// random anchor choice: corruption rate at p=0.15 for both policies.
func BenchmarkAblationScatter(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := rng.New(uint64(i) + 1)
		w, err := experiments.BuildWorld(500, 3, root.Split("world"))
		if err != nil {
			b.Fatal(err)
		}
		ts, err := experiments.DeployTunnels(w, 100, 5, root.Split("tunnels"))
		if err != nil {
			b.Fatal(err)
		}
		w.Col.MarkFraction(0.15, root.Split("mark"))
		if i == 0 {
			b.ReportMetric(w.Col.CorruptionRate(ts.Tunnels), "scatter_corrupt_rate")
		}
	}
}

// --- micro-benchmarks ------------------------------------------------------------

// BenchmarkPastryRoute measures one overlay lookup in a 10,000-node
// network (the paper's log_16 N promise).
func BenchmarkPastryRoute(b *testing.B) {
	root := rng.New(1)
	ov, err := pastry.Build(pastry.DefaultConfig(), 10_000, root.Split("overlay"))
	if err != nil {
		b.Fatal(err)
	}
	s := root.Split("keys")
	b.ReportAllocs()
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		var key id.ID
		s.Bytes(key[:])
		_, h, err := ov.Lookup(ov.RandomLive(s).Ref().Addr, key)
		if err != nil {
			b.Fatal(err)
		}
		hops += h
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops/route")
}

// BenchmarkLeafSetClosestTo measures the leaf-set decision alone — which
// of a node's L neighbours (or itself) is numerically closest to a key
// inside its leaf arc — the step every overlay hop of every simulated
// packet ends on. 1000 nodes, as sim_stream runs.
func BenchmarkLeafSetClosestTo(b *testing.B) {
	root := rng.New(1)
	ov, err := pastry.Build(pastry.DefaultConfig(), 1000, root.Split("overlay"))
	if err != nil {
		b.Fatal(err)
	}
	s := root.Split("keys")
	type probe struct {
		node *pastry.Node
		key  id.ID
	}
	probes := make([]probe, 256)
	for i := range probes {
		// A key just beside a random member lies within the arc unless
		// that member is its far end; redraw those.
		for {
			n := ov.RandomLive(s)
			m := n.Leaf.Members()
			key := m[s.Intn(len(m))].ID
			s.Bytes(key[id.Size-8:])
			if n.Leaf.Covers(key) {
				probes[i] = probe{n, key}
				break
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &probes[i%len(probes)]
		closestSink = p.node.Leaf.ClosestTo(p.key, p.node.Ref())
	}
}

// closestSink keeps BenchmarkLeafSetClosestTo's measured call alive.
var closestSink pastry.NodeRef

// BenchmarkOverlayBuild measures constructing a 10,000-node overlay with
// full routing state (one per experiment trial).
func BenchmarkOverlayBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pastry.Build(pastry.DefaultConfig(), 10_000, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldSetup is sim_stream's set-up sample: a 1000-node world
// (overlay, PAST, simnet) and 64 deployed length-3 tunnels, each
// initiator on a stream of its own. Every Monte-Carlo trial of the
// figures pays this shape of cost before its first message.
func BenchmarkWorldSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := rng.New(uint64(i) + 1)
		w, err := experiments.BuildWorld(1000, 3, root.Split("world"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.DeployTunnels(w, 64, 3, root.Split("tunnels")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelScheduleRun measures the event kernel's steady-state
// schedule+dispatch cycle: 256 events across a millisecond-to-seconds
// delay spread (near ring and far heap both exercised), drained to
// empty. Steady state must be allocation-free — Schedule recycles event
// slots through the kernel-local freelist — so allocs/op is the gated
// number, not ns/op.
func BenchmarkKernelScheduleRun(b *testing.B) {
	k := simnet.NewKernel()
	delays := make([]simnet.Time, 256)
	for i := range delays {
		// 1ms .. ~4s, deterministic spread across calendar buckets.
		delays[i] = simnet.Time(time.Millisecond) * simnet.Time(1+i*i%4096)
	}
	fn := func() {}
	cycle := func() {
		now := k.Now()
		for _, d := range delays {
			k.At(now+d, fn)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the slot arena and every bucket the rotating window touches.
	for i := 0; i < 256; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(256, "events/op")
}

// BenchmarkTunnelWalk measures one complete 5-hop anonymous delivery
// (layer building + hop decryptions + routing) in a 1,000-node network.
func BenchmarkTunnelWalk(b *testing.B) {
	root := rng.New(1)
	w, err := experiments.BuildWorld(1000, 3, root.Split("world"))
	if err != nil {
		b.Fatal(err)
	}
	node := w.OV.RandomLive(root.Split("pick"))
	in, err := core.NewInitiator(w.Svc, node, root.Split("init"))
	if err != nil {
		b.Fatal(err)
	}
	if err := in.DeployDirect(8); err != nil {
		b.Fatal(err)
	}
	tun, err := in.FormTunnel(5)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	bs := root.Split("build")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := core.BuildForward(tun, nil, id.HashString("d"), payload, bs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Svc.DeliverForward(node.Ref().Addr, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayeredSeal measures building the 5-layer Figure 1 message for
// a 250 KB (2 Mb) payload — the per-transfer cryptographic cost the paper
// calls negligible.
func BenchmarkLayeredSeal(b *testing.B) {
	root := rng.New(1)
	w, err := experiments.BuildWorld(200, 3, root.Split("world"))
	if err != nil {
		b.Fatal(err)
	}
	node := w.OV.RandomLive(root.Split("pick"))
	in, err := core.NewInitiator(w.Svc, node, root.Split("init"))
	if err != nil {
		b.Fatal(err)
	}
	if err := in.DeployDirect(8); err != nil {
		b.Fatal(err)
	}
	tun, err := in.FormTunnel(5)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 250_000)
	bs := root.Split("build")
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildForward(tun, nil, id.HashString("d"), payload, bs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayeredPeel measures the hop side of the same 250 KB 5-layer
// message: one receive copy plus every layer decryption, the aggregate
// per-hop work one full tunnel traversal pays. Anchors are fetched through
// the directory, exactly as hop nodes obtain them.
func BenchmarkLayeredPeel(b *testing.B) {
	root := rng.New(1)
	w, err := experiments.BuildWorld(200, 3, root.Split("world"))
	if err != nil {
		b.Fatal(err)
	}
	node := w.OV.RandomLive(root.Split("pick"))
	in, err := core.NewInitiator(w.Svc, node, root.Split("init"))
	if err != nil {
		b.Fatal(err)
	}
	if err := in.DeployDirect(8); err != nil {
		b.Fatal(err)
	}
	tun, err := in.FormTunnel(5)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 250_000)
	env, err := core.BuildForward(tun, nil, id.HashString("d"), payload, root.Split("build"))
	if err != nil {
		b.Fatal(err)
	}
	anchors := make([]tha.Anchor, tun.Length())
	for i, h := range tun.Hops {
		hn, ok := w.Dir.HopNode(h.HopID)
		if !ok {
			b.Fatal("hop lost")
		}
		anchors[i], err = w.Dir.FetchAsHolder(hn.Ref().Addr, h.HopID)
		if err != nil {
			b.Fatal(err)
		}
	}
	scratch := make([]byte, len(env.Sealed))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One receive copy, then each hop peels in place on the owned
		// buffer — the walker's exact pattern.
		sealed := scratch[:copy(scratch, env.Sealed)]
		for j := range anchors {
			layer, err := core.OpenForwardLayerInPlace(anchors[j], sealed)
			if err != nil {
				b.Fatal(err)
			}
			if layer.IsExit {
				if len(layer.Payload) != len(payload) {
					b.Fatal("short payload")
				}
				break
			}
			sealed = layer.Inner
		}
	}
}

// BenchmarkPoolProbeCycle measures one full TunnelPool probe round on a
// healthy 3-tunnel pool, driven to quiescence on the simulated clock:
// three echo messages sealed and walked end to end, each a one-segment
// stream with its ACK and timer, and the health accounting on their
// return. This is the pool's steady-state background cost per probe
// interval; the alloc-regression gate watches it so probing stays cheap
// enough to run continuously.
func BenchmarkPoolProbeCycle(b *testing.B) {
	root := rng.New(1)
	w, err := experiments.BuildWorld(200, 3, root.Split("world"))
	if err != nil {
		b.Fatal(err)
	}
	kernel := simnet.NewKernel()
	kernel.MaxSteps = 0
	net := simnet.NewNetwork(kernel, simnet.DefaultLinkModel(root.Seed()), w.OV.NumAddrs())
	eng := core.NewNetEngine(w.Svc, net)
	node := w.OV.RandomLive(root.Split("pick"))
	in, err := core.NewInitiator(w.Svc, node, root.Split("init"))
	if err != nil {
		b.Fatal(err)
	}
	pool, err := core.NewTunnelPool(in, eng, core.PoolConfig{})
	if err != nil {
		b.Fatal(err)
	}
	// Deliberately not Start()ed: the benchmark drives rounds itself so
	// each iteration is exactly one probe cycle, not a timer race.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.ProbeRound()
		if err := kernel.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if pool.HealthyCount() != pool.TargetSize() {
		b.Fatalf("pool degraded during benchmark: %d/%d healthy",
			pool.HealthyCount(), pool.TargetSize())
	}
}

// BenchmarkStreamThroughput measures the pipelined sliding-window stream
// protocol end to end on a fixed 50ms-RTT direct path with 1% loss — the
// conditions of the protocol's headline claim. One op is a complete
// 128 KB transfer on a pre-warmed engine, so allocs/op covers only the
// per-stream setup (send ring, receive state, id-map growth); the
// per-segment steady state is allocation-free (pinned exactly by
// TestStreamSteadyStateZeroAlloc) and the hot group's alloc gate watches
// this number for drift. The w=1 sub-benchmark is the stop-and-wait
// baseline: comparing the two sim_KB/s metrics restates the >=5x
// pipelining win on the simulated clock, independent of host speed.
func BenchmarkStreamThroughput(b *testing.B) {
	for _, w := range []int{1, 32} {
		b.Run("w="+itoa(w), func(b *testing.B) {
			root := rng.New(1)
			world, err := experiments.BuildWorld(100, 3, root.Split("world"))
			if err != nil {
				b.Fatal(err)
			}
			kernel := simnet.NewKernel()
			kernel.MaxSteps = 0
			net := simnet.NewNetwork(kernel, simnet.LinkModel{
				MinLatency: 25 * time.Millisecond,
				MaxLatency: 25 * time.Millisecond,
				Seed:       1,
			}, world.OV.NumAddrs())
			net.InstallFaults(&simnet.FaultPlan{Seed: 7, LossRate: 0.01})
			eng := core.NewNetEngine(world.Svc, net)
			src := world.OV.RandomLive(root.Split("src"))
			dst := world.OV.RandomLive(root.Split("dst"))
			if src.Ref().Addr == dst.Ref().Addr {
				b.Fatal("src and dst collided; pick another seed")
			}
			data := make([]byte, 128*1024)
			root.Split("data").Bytes(data)
			transfer := func() {
				s := eng.OpenStream(src.Ref().Addr, dst.ID(), dst.Ref().Addr, core.StreamConfig{Window: w})
				s.WriteAll(data)
				if err := kernel.Run(); err != nil {
					b.Fatal(err)
				}
				if !s.Done() {
					_, why := s.Failed()
					b.Fatalf("transfer failed: %s", why)
				}
			}
			transfer() // warm the packet, segment, and kernel-event pools
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			start := kernel.Now()
			for i := 0; i < b.N; i++ {
				transfer()
			}
			if sim := time.Duration(kernel.Now() - start); sim > 0 {
				b.ReportMetric(float64(len(data))*float64(b.N)/sim.Seconds()/1e3, "sim_KB/s")
			}
		})
	}
}

// BenchmarkPastryJoinProtocol measures one protocol-faithful join
// (route + state transfer) into a 5,000-node overlay.
func BenchmarkPastryJoinProtocol(b *testing.B) {
	root := rng.New(1)
	ov, err := pastry.Build(pastry.DefaultConfig(), 5000, root.Split("overlay"))
	if err != nil {
		b.Fatal(err)
	}
	s := root.Split("join")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ov.JoinViaRouting(ov.RandomLive(s).Ref().Addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicaMigration measures the storage-layer cost of one node
// failure in a loaded system (2,000 anchors over 2,000 nodes, k=3). The
// world is rebuilt outside the timer whenever failures drain it.
func BenchmarkReplicaMigration(b *testing.B) {
	build := func(seed uint64) *experiments.World {
		root := rng.New(seed)
		w, err := experiments.BuildWorld(2000, 3, root.Split("world"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.DeployTunnels(w, 400, 5, root.Split("tunnels")); err != nil {
			b.Fatal(err)
		}
		return w
	}
	w := build(1)
	s := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.OV.Size() < 200 {
			b.StopTimer()
			w = build(uint64(i) + 3)
			b.StartTimer()
		}
		if err := w.OV.Fail(w.OV.RandomLive(s).Ref().Addr); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers ---------------------------------------------------------------------

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func kName(k int) string { return "k=" + itoa(k) }
