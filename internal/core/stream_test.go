package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/simnet"
)

// fixedLink gives every distinct pair of nodes the same one-way latency
// and no serialization delay, so protocol timing assertions are exact.
func fixedLink(oneWay time.Duration) simnet.LinkModel {
	return simnet.LinkModel{MinLatency: oneWay, MaxLatency: oneWay, Seed: 1}
}

// patternData builds a deterministic payload whose bytes encode their own
// offset, so any reordering or duplication corrupts the comparison.
func patternData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	return data
}

// streamSink collects one engine's incoming streams for assertions.
type streamSink struct {
	buf    []byte
	seqs   []uint64
	closes int
}

func (c *streamSink) install(e *NetEngine) {
	e.OnStream = func(rs *RecvStream) {
		rs.OnData = func(seq uint64, b []byte) {
			c.buf = append(c.buf, b...)
			c.seqs = append(c.seqs, seq)
		}
		rs.OnClose = func(*RecvStream) { c.closes++ }
	}
}

func (c *streamSink) assertOrdered(t *testing.T) {
	t.Helper()
	for i := 1; i < len(c.seqs); i++ {
		if c.seqs[i] <= c.seqs[i-1] {
			t.Fatalf("segments delivered out of order: seq %d after %d", c.seqs[i], c.seqs[i-1])
		}
	}
}

func TestStreamDirectTransfer(t *testing.T) {
	ns := newNetSys(t, 200, 3, 31)
	src := ns.ov.RandomLive(ns.root.Split("src"))
	dst := ns.ov.RandomLive(ns.root.Split("dst"))
	if src.Ref().Addr == dst.Ref().Addr {
		t.Fatal("src and dst collided; pick another seed")
	}
	sink := &streamSink{}
	sink.install(ns.eng)

	data := patternData(100_000)
	s := ns.eng.OpenStream(src.Ref().Addr, dst.ID(), dst.Ref().Addr, StreamConfig{})
	completed, ok := false, false
	s.OnComplete = func(o Outcome) { completed, ok = true, o.Delivered }
	s.WriteAll(data)
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed || !ok {
		why := ""
		if f, w := s.Failed(); f {
			why = w
		}
		t.Fatalf("stream did not complete cleanly: completed=%v ok=%v (%s)", completed, ok, why)
	}
	if !bytes.Equal(sink.buf, data) {
		t.Fatalf("received %d bytes, want %d byte-identical", len(sink.buf), len(data))
	}
	sink.assertOrdered(t)
	if sink.closes != 1 {
		t.Fatalf("OnClose fired %d times, want exactly once", sink.closes)
	}
	if got, want := s.MaxInflightSegs(), s.cfg.Window; got > want {
		t.Fatalf("window violated: %d segments in flight, configured %d", got, want)
	}
	if ns.eng.StreamSegsRetx != 0 {
		t.Fatalf("lossless transfer retransmitted %d segments", ns.eng.StreamSegsRetx)
	}
}

func TestStreamLossAndReorderExactlyOnce(t *testing.T) {
	ns := newNetSys(t, 200, 3, 32)
	src := ns.ov.RandomLive(ns.root.Split("src"))
	dst := ns.ov.RandomLive(ns.root.Split("dst"))
	if src.Ref().Addr == dst.Ref().Addr {
		t.Fatal("src and dst collided; pick another seed")
	}
	ns.net.InstallFaults(&simnet.FaultPlan{Seed: 9, LossRate: 0.1})
	// Deterministic reordering: every third-ish message is held back long
	// enough to arrive behind its successors.
	ns.net.ExtraDelay = func(srcA, dstA simnet.Addr, msg simnet.Message) simnet.Time {
		if (uint64(srcA)+uint64(dstA)+uint64(msg.SizeBytes()))%3 == 0 {
			return simnet.Time(90 * time.Millisecond)
		}
		return 0
	}
	sink := &streamSink{}
	sink.install(ns.eng)

	data := patternData(64_000)
	s := ns.eng.OpenStream(src.Ref().Addr, dst.ID(), dst.Ref().Addr, StreamConfig{Window: 16})
	var okDone bool
	s.OnComplete = func(o Outcome) { okDone = o.Delivered }
	s.WriteAll(data)
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !okDone {
		_, why := s.Failed()
		t.Fatalf("stream failed under loss: %s", why)
	}
	if !bytes.Equal(sink.buf, data) {
		t.Fatalf("received %d bytes, want %d byte-identical despite loss+reorder", len(sink.buf), len(data))
	}
	sink.assertOrdered(t)
	if sink.closes != 1 {
		t.Fatalf("OnClose fired %d times, want exactly once", sink.closes)
	}
	if ns.eng.StreamSegsRetx == 0 {
		t.Fatal("10% loss produced zero retransmissions; faults not applied?")
	}
	if got, want := s.MaxInflightSegs(), s.cfg.Window; got > want {
		t.Fatalf("window violated under loss: %d in flight, configured %d", got, want)
	}
}

func TestStreamTunnelTransfer(t *testing.T) {
	ns := newNetSys(t, 400, 3, 33)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	ns.net.InstallFaults(&simnet.FaultPlan{Seed: 5, LossRate: 0.05})
	sink := &streamSink{}
	sink.install(ns.eng)

	data := patternData(32_000)
	dest := id.HashString("streamed-file")
	s := ns.eng.OpenTunnelStream(in.Node().Ref().Addr, tun, dest, StreamConfig{Window: 8})
	var okDone bool
	s.OnComplete = func(o Outcome) { okDone = o.Delivered }
	s.WriteAll(data)
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !okDone {
		_, why := s.Failed()
		t.Fatalf("tunnel stream failed: %s", why)
	}
	if !bytes.Equal(sink.buf, data) {
		t.Fatalf("received %d bytes over tunnel, want %d byte-identical", len(sink.buf), len(data))
	}
	// Every segment was framed in the engine's one scratch buffer, so each
	// retransmission found a later segment's frame there and re-framed its
	// own from the window slot.
	if s.SegsRetx == 0 {
		t.Fatal("no segment was retransmitted: the loss plan no longer exercises re-framing")
	}
	sink.assertOrdered(t)
	if sink.closes != 1 {
		t.Fatalf("OnClose fired %d times, want exactly once", sink.closes)
	}
}

// TestStreamTunnelSegmentDiesAtHopNode: a tunnel-mode segment is a
// kindForward packet carrying a stream id until the exit unwraps it. One
// that dies at a hop node is a lost stream segment — counted, kept out of
// the flow table, and returned to the freelist — and the stream recovers
// through the replica that took the hop over.
func TestStreamTunnelSegmentDiesAtHopNode(t *testing.T) {
	ns := newNetSys(t, 400, 3, 35)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	// Kill the middle hop's node but leave it attached: the hinted packet
	// arrives at a node that is dead to the overlay ("died holding packet").
	mid, ok := ns.dir.HopNode(tun.Hops[1].HopID)
	if !ok {
		t.Fatal("no middle hop node")
	}
	if err := ns.ov.Fail(mid.Ref().Addr); err != nil {
		t.Fatal(err)
	}
	sink := &streamSink{}
	sink.install(ns.eng)
	data := patternData(4096)
	s := ns.eng.OpenTunnelStream(in.Node().Ref().Addr, tun, id.HashString("d"), StreamConfig{Window: 4})
	s.WriteAll(data)
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Done() || !bytes.Equal(sink.buf, data) {
		_, why := s.Failed()
		t.Fatalf("stream did not recover through the replica: done=%v why=%q", s.Done(), why)
	}
	if ns.eng.StreamSegsLost == 0 {
		t.Fatal("segments died at the dead hop node but StreamSegsLost = 0")
	}
	if len(ns.eng.flows) != 0 || ns.eng.FailFlows != 0 {
		t.Fatalf("a stream segment's death reached the flow table: flows=%d FailFlows=%d",
			len(ns.eng.flows), ns.eng.FailFlows)
	}

	// The dying packet returns to the freelist its sender took it from.
	p := ns.eng.getPacket()
	p.kind, p.flow, p.env = kindForward, s.ID(), Envelope{Sealed: []byte("onion")}
	free := len(ns.eng.pktFree)
	ns.eng.finish(mid.Ref().Addr, p, false, "hop lost")
	if len(ns.eng.pktFree) != free+1 || ns.eng.pktFree[free] != p || p.env.Sealed != nil {
		t.Fatal("a segment that died at a hop was not recycled")
	}
}

// TestStreamFailsThroughDroppingHop: a hop node that keeps its anchor but
// drops the hop's traffic is no failure the overlay can repair, so a
// tunnel stream through it retransmits until its budget runs out, then
// fails, says why, and reports the failure once.
func TestStreamFailsThroughDroppingHop(t *testing.T) {
	ns := newNetSys(t, 300, 3, 36)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	evil, ok := ns.dir.HopNode(tun.Hops[2].HopID)
	if !ok {
		t.Fatal("no exit hop node")
	}
	evilAddr, evilHop := evil.Ref().Addr, tun.Hops[2].HopID
	ns.svc.HopFilter = func(addr simnet.Addr, hopID id.ID) bool {
		return addr != evilAddr || hopID != evilHop
	}
	sink := &streamSink{}
	sink.install(ns.eng)
	s := ns.eng.OpenTunnelStream(in.Node().Ref().Addr, tun, id.HashString("d"), StreamConfig{Window: 4})
	var outs []Outcome
	s.OnComplete = func(o Outcome) { outs = append(outs, o) }
	s.WriteAll(patternData(2048))
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	failed, why := s.Failed()
	if !failed || s.Done() || !strings.Contains(why, "retransmit budget exhausted") {
		t.Fatalf("failed=%v done=%v why=%q, want a retransmit-budget failure", failed, s.Done(), why)
	}
	if len(outs) != 1 || outs[0].Delivered || outs[0].FailedAt != why {
		t.Fatalf("outcomes %+v, want one undelivered outcome naming %q", outs, why)
	}
	if len(sink.buf) != 0 || sink.closes != 0 {
		t.Fatalf("receiver got %d bytes and %d closes through a dropping exit", len(sink.buf), sink.closes)
	}
}

// TestRecvStreamKnowsItsDest: the receiving end of a tunnel stream learns
// the destination id the sender addressed, and its stream id.
func TestRecvStreamKnowsItsDest(t *testing.T) {
	ns := newNetSys(t, 300, 3, 37)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	dest := id.HashString("named-file")
	var got []*RecvStream
	ns.eng.OnStream = func(rs *RecvStream) { got = append(got, rs) }
	s := ns.eng.OpenTunnelStream(in.Node().Ref().Addr, tun, dest, StreamConfig{Window: 4})
	s.WriteAll(patternData(1024))
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		_, why := s.Failed()
		t.Fatalf("stream failed: %s", why)
	}
	if len(got) != 1 || got[0].Dest() != dest || got[0].ID() != s.ID() {
		t.Fatalf("receiver saw %d streams; want one to %s with id %d", len(got), dest.Short(), s.ID())
	}
}

func TestStreamBackpressure(t *testing.T) {
	ns := newNetSys(t, 100, 3, 34)
	src := ns.ov.RandomLive(ns.root.Split("src"))
	dst := ns.ov.RandomLive(ns.root.Split("dst"))
	if src.Ref().Addr == dst.Ref().Addr {
		t.Fatal("src and dst collided; pick another seed")
	}
	sink := &streamSink{}
	sink.install(ns.eng)

	cfg := StreamConfig{Window: 4, SegSize: 1024}
	data := patternData(64 * 1024)
	s := ns.eng.OpenStream(src.Ref().Addr, dst.ID(), dst.Ref().Addr, cfg)
	var okDone bool
	s.OnComplete = func(o Outcome) { okDone = o.Delivered }
	// A single huge write must stop at exactly one window of segments; the
	// acknowledgments push the rest.
	s.WriteAll(data)
	if sent, want := s.sndNxt, uint64(cfg.Window); sent != want {
		t.Fatalf("first fill sent %d segments, want %d (the window)", sent, want)
	}
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !okDone {
		t.Fatal("backpressured stream did not complete")
	}
	if !bytes.Equal(sink.buf, data) {
		t.Fatalf("received %d bytes, want %d byte-identical", len(sink.buf), len(data))
	}
	if got, want := s.MaxInflightSegs(), cfg.Window; got > want {
		t.Fatalf("window violated: %d in flight, configured %d", got, want)
	}
}

// TestWriteAllFinFollowsLastByte: whatever the content's length — empty,
// one byte, a segment, a window, a window and a byte — and over the overt
// path or a tunnel, WriteAll sends one FIN, empty and numbered right after
// the last data segment; every copy of segment seq on the wire carries the
// content's SegSize bytes from seq·SegSize on; and the stream completes
// once.
func TestWriteAllFinFollowsLastByte(t *testing.T) {
	cfg := StreamConfig{Window: 4, SegSize: 512}
	cases := []struct {
		name string
		size int
	}{
		{"empty", 0},
		{"one_byte", 1},
		{"one_segment", cfg.SegSize},
		{"one_window", cfg.Window * cfg.SegSize},
		{"window_and_a_byte", cfg.Window*cfg.SegSize + 1},
	}
	for _, tunnel := range []bool{false, true} {
		for _, c := range cases {
			name := c.name
			if tunnel {
				name = "tunnel/" + name
			}
			t.Run(name, func(t *testing.T) { writeAllFinCase(t, cfg, c.size, tunnel) })
		}
	}
}

func writeAllFinCase(t *testing.T, cfg StreamConfig, size int, tunnel bool) {
	ns := newNetSys(t, 100, 3, 37)
	dst := ns.ov.RandomLive(ns.root.Split("dst"))
	sink := &streamSink{}
	sink.install(ns.eng)
	var s *Stream
	if tunnel {
		in := ns.readyInitiator(t, "a", 12)
		tun, err := in.FormTunnel(3)
		if err != nil {
			t.Fatal(err)
		}
		s = ns.eng.OpenTunnelStream(in.Node().Ref().Addr, tun, dst.ID(), cfg)
	} else {
		src := ns.ov.RandomLive(ns.root.Split("src"))
		if src.Ref().Addr == dst.Ref().Addr {
			t.Fatal("src and dst collided; pick another seed")
		}
		s = ns.eng.OpenStream(src.Ref().Addr, dst.ID(), dst.Ref().Addr, cfg)
	}
	// Every copy of a segment in the clear on the wire: from the sender
	// in direct mode, from the tunnel's exit on in tunnel mode.
	type segCopy struct {
		seq  uint64
		fin  bool
		data []byte
	}
	var copies []segCopy
	ns.net.SendHook = func(_, _ simnet.Addr, msg simnet.Message) {
		if p, ok := msg.(*packet); ok && p.kind == kindStream && p.flow == s.ID() {
			copies = append(copies, segCopy{p.seq, p.fin, bytes.Clone(p.data)})
		}
	}
	data := patternData(size)
	var completions []bool
	s.OnComplete = func(o Outcome) { completions = append(completions, o.Delivered) }
	s.WriteAll(data)
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	finSeq := uint64((size + cfg.SegSize - 1) / cfg.SegSize)
	seen := make([]bool, finSeq+1)
	for _, c := range copies {
		if c.seq > finSeq || c.fin != (c.seq == finSeq) {
			t.Fatalf("%d bytes: segment %d sent with fin=%v, want the FIN as seq %d", size, c.seq, c.fin, finSeq)
		}
		lo := min(int(c.seq)*cfg.SegSize, size)
		if want := data[lo:min(lo+cfg.SegSize, size)]; !bytes.Equal(c.data, want) {
			t.Fatalf("%d bytes: segment %d carried %d bytes, want the %d from offset %d", size, c.seq, len(c.data), len(want), lo)
		}
		seen[c.seq] = true
	}
	for seq, ok := range seen {
		if !ok {
			t.Fatalf("%d bytes: segment %d never seen on the wire", size, seq)
		}
	}
	if ns.eng.StreamSegsSent != finSeq+1 || s.SegsRetx != 0 {
		t.Fatalf("%d bytes: %d segments sent and %d re-sent, want %d and none", size, ns.eng.StreamSegsSent, s.SegsRetx, finSeq+1)
	}
	if len(completions) != 1 || !completions[0] {
		t.Fatalf("%d bytes: OnComplete fired %v, want [true]", size, completions)
	}
	if !bytes.Equal(sink.buf, data) || sink.closes != 1 {
		t.Fatalf("%d bytes: received %d bytes and %d closes", size, len(sink.buf), sink.closes)
	}
}

func TestStreamRTTEstimator(t *testing.T) {
	var est rttEstimator
	if est.rto(streamInitRTO, streamMinRTO) != streamInitRTO {
		t.Fatal("estimator without samples must return streamInitRTO")
	}
	sample := simnet.Time(50 * time.Millisecond)
	for i := 0; i < 40; i++ {
		est.observe(sample)
	}
	if est.srtt != sample {
		t.Fatalf("srtt converged to %v, want %v", est.srtt, sample)
	}
	// Constant samples decay RTTVAR toward zero, so RTO approaches SRTT
	// (floored well above streamMinRTO here).
	if got := est.rto(streamInitRTO, streamMinRTO); got < sample || got > 2*sample {
		t.Fatalf("rto = %v, want within [%v, %v]", got, sample, 2*sample)
	}
	// A spike inflates RTTVAR and thus RTO.
	est.observe(simnet.Time(250 * time.Millisecond))
	if got := est.rto(streamInitRTO, streamMinRTO); got <= sample {
		t.Fatalf("rto = %v after a spike, want above the base sample", got)
	}
	// And the floor holds for tiny samples.
	var tiny rttEstimator
	tiny.observe(simnet.Time(time.Microsecond))
	if got := tiny.rto(streamInitRTO, streamMinRTO); got != streamMinRTO {
		t.Fatalf("rto = %v for microsecond RTT, want streamMinRTO %v", got, simnet.Time(streamMinRTO))
	}
}

// TestStreamGoodputVsStopAndWait is the headline acceptance number: at a
// fixed 50ms tunnel-path RTT with 1% loss, the windowed protocol must move
// the same payload at least 5x faster than stop-and-wait (window 1).
func TestStreamGoodputVsStopAndWait(t *testing.T) {
	run := func(window int) time.Duration {
		ns := newNetSys(t, 100, 3, 36)
		ns.net.Link = fixedLink(25 * time.Millisecond) // 50ms RTT
		ns.net.InstallFaults(&simnet.FaultPlan{Seed: 7, LossRate: 0.01})
		src := ns.ov.RandomLive(ns.root.Split("src"))
		dst := ns.ov.RandomLive(ns.root.Split("dst"))
		if src.Ref().Addr == dst.Ref().Addr {
			t.Fatal("src and dst collided; pick another seed")
		}
		sink := &streamSink{}
		sink.install(ns.eng)
		data := patternData(128 * 1024)
		s := ns.eng.OpenStream(src.Ref().Addr, dst.ID(), dst.Ref().Addr, StreamConfig{Window: window})
		var doneAt simnet.Time
		var okDone bool
		s.OnComplete = func(o Outcome) { okDone, doneAt = o.Delivered, ns.kernel.Now() }
		s.WriteAll(data)
		if err := ns.kernel.Run(); err != nil {
			t.Fatal(err)
		}
		if !okDone {
			_, why := s.Failed()
			t.Fatalf("window=%d transfer failed: %s", window, why)
		}
		if !bytes.Equal(sink.buf, data) {
			t.Fatalf("window=%d corrupted the payload", window)
		}
		return time.Duration(doneAt)
	}

	windowed := run(32)
	stopWait := run(1)
	ratio := float64(stopWait) / float64(windowed)
	t.Logf("stop-and-wait %v, windowed %v, speedup %.1fx", stopWait, windowed, ratio)
	if ratio < 5 {
		t.Fatalf("windowed speedup %.2fx over stop-and-wait, want >= 5x", ratio)
	}
}

// steadyStateMallocsPerSeg runs a transfer of segs full segments twice on
// the stream open returns — once to warm the packet, segment and
// kernel-event pools — and reports the second run's allocations per segment.
func steadyStateMallocsPerSeg(t *testing.T, ns *netSys, segs int, open func() *Stream) float64 {
	t.Helper()
	var sum uint64
	ns.eng.OnStream = func(rs *RecvStream) {
		rs.OnData = func(seq uint64, b []byte) {
			for _, x := range b {
				sum += uint64(x)
			}
		}
	}
	data := patternData(segs * 1024)
	transfer := func() {
		s := open()
		s.WriteAll(data)
		if err := ns.kernel.Run(); err != nil {
			t.Fatal(err)
		}
		if !s.Done() {
			_, why := s.Failed()
			t.Fatalf("transfer did not finish: %s", why)
		}
	}
	transfer() // warm every pool

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	transfer()
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	perSeg := float64(mallocs) / float64(segs)
	t.Logf("steady-state transfer: %d mallocs over %d segments (%.3f/seg)", mallocs, segs, perSeg)
	_ = sum
	return perSeg
}

// TestStreamSteadyStateZeroAlloc pins the direct-mode hot-path allocation
// budget: after a warmup transfer, a long steady-state transfer must
// allocate (amortized) nothing per segment.
func TestStreamSteadyStateZeroAlloc(t *testing.T) {
	ns := newNetSys(t, 100, 3, 37)
	ns.net.Link = fixedLink(5 * time.Millisecond)
	src := ns.ov.RandomLive(ns.root.Split("src"))
	dst := ns.ov.RandomLive(ns.root.Split("dst"))
	if src.Ref().Addr == dst.Ref().Addr {
		t.Fatal("src and dst collided; pick another seed")
	}
	perSeg := steadyStateMallocsPerSeg(t, ns, 2048, func() *Stream {
		return ns.eng.OpenStream(src.Ref().Addr, dst.ID(), dst.Ref().Addr, StreamConfig{})
	})
	// Per-stream setup (the Stream, its ring, the receive state, map
	// growth) is allowed; per-segment cost is not.
	if perSeg > 0.05 {
		t.Fatalf("steady-state send path allocates %.3f objects/segment, want ~0", perSeg)
	}
}

// TestStreamTunnelSteadyStateAllocBudget is the tunnel-mode twin, held to
// the same budget: sealing, carrying and peeling a segment allocates
// nothing. The frame is written into the engine's scratch buffer and sealed
// into the onion storage of the packet that carries it, every hop peels
// that onion where it lies with its anchor's cached key schedule and passes
// the one packet on, and the receiver puts the packet — storage and inline
// ACK ranges with it — back on the freelist once the segment is delivered.
// An envelope or onion allocated per transmission is two objects per
// segment; one packet taken from the freelist and never returned is one.
func TestStreamTunnelSteadyStateAllocBudget(t *testing.T) {
	ns := newNetSys(t, 100, 3, 41)
	ns.net.Link = fixedLink(5 * time.Millisecond)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	dest := id.HashString("alloc-file")
	origin := in.Node().Ref().Addr
	perSeg := steadyStateMallocsPerSeg(t, ns, 512, func() *Stream {
		return ns.eng.OpenTunnelStream(origin, tun, dest, StreamConfig{})
	})
	if perSeg > 0.05 {
		t.Fatalf("steady-state tunnel send path allocates %.3f objects/segment, want ~0: something is sealed into fresh storage, copied per hop or leaks from the packet freelist", perSeg)
	}
}

// TestStreamTunnelBackoffMemory covers the per-tunnel retransmit-backoff
// satellite for streams: a stream over a tunnel that just proved lossy
// inherits the stored RTO; repeated timeouts grow the shared memory; a
// clean run clears it.
func TestStreamTunnelBackoffMemory(t *testing.T) {
	ns := newNetSys(t, 400, 3, 38)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	origin := in.Node().Ref().Addr
	dest := id.HashString("backoff-file")

	// Inheritance: a stored backoff beats the optimistic initial RTO.
	stored := simnet.Time(5 * time.Second)
	tun.storeRTO(stored)
	s := ns.eng.OpenTunnelStream(origin, tun, dest, StreamConfig{})
	if s.rto != stored {
		t.Fatalf("stream started with rto %v, want inherited %v", s.rto, stored)
	}

	// A clean transfer (no loss, no retransmits) clears the memory.
	sink := &streamSink{}
	sink.install(ns.eng)
	s.WriteAll(patternData(4096))
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		_, why := s.Failed()
		t.Fatalf("clean transfer failed: %s", why)
	}
	if tun.loadRTO() != 0 {
		t.Fatal("clean run should drop the tunnel's backoff memory")
	}

	// Total loss: timeouts grow the shared memory while the stream backs
	// off, and repeated expiry drops the tunnel's hop hints well
	// before the retry budget runs out.
	ns.net.InstallFaults(&simnet.FaultPlan{Seed: 3, LossRate: 1})
	s2 := ns.eng.OpenTunnelStream(origin, tun, dest, StreamConfig{})
	s2.WriteAll(patternData(2048))
	// streamInitRTO (1s) doubling per expiry: backoffCount hits 3 (the hint
	// eviction point) by t=7s. Check at 20s — four expiries, long before
	// the streamMaxRetries budget.
	if err := ns.kernel.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := tun.loadRTO(); got <= simnet.Time(time.Second) {
		t.Fatalf("tunnel backoff memory after repeated timeouts = %v, want grown beyond streamInitRTO", got)
	}
	for i, h := range tun.Hops {
		if a := tun.Hint(i); a != simnet.NoAddr {
			t.Fatalf("hop %s hint still remembered after repeated RTO expiry", h.HopID.Short())
		}
	}
	if done := s2.Done(); done {
		t.Fatal("stream cannot have completed under total loss")
	}

	// A fresh stream over the same tunnel inherits the grown backoff.
	s3 := ns.eng.OpenTunnelStream(origin, tun, dest, StreamConfig{})
	if s3.rto <= simnet.Time(time.Second) {
		t.Fatalf("new stream started with rto %v, want inherited backed-off value", s3.rto)
	}
}

// TestOneKeySchedulePerAnchor: in the simulator an anchor's owner and its
// k holders share the key-schedule cell Generate minted with it, so
// carrying a segment through every hop of a tunnel derives one schedule
// per anchor. Every copy of a hop's anchor — the tunnel's, and the one each
// replica holder is handed — answers with the same schedule, already
// derived, so asking again allocates nothing; two hops never share one;
// and the owner's next build derives nothing.
func TestOneKeySchedulePerAnchor(t *testing.T) {
	ns := newNetSys(t, 100, 3, 44)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	s := ns.eng.OpenTunnelStream(in.Node().Ref().Addr, tun, id.HashString("one-segment"), StreamConfig{})
	s.WriteAll(patternData(100))
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		_, why := s.Failed()
		t.Fatalf("segment not delivered: %s", why)
	}
	schedules := make(map[*crypt.Sealer]bool)
	for i, h := range tun.Hops {
		own := h.Sealer()
		schedules[own] = true
		holders := ns.dir.ReplicaAddrs(h.HopID)
		if len(holders) != 3 {
			t.Fatalf("hop %d has %d holders, want 3", i, len(holders))
		}
		for _, addr := range holders {
			held, err := ns.dir.FetchAsHolder(addr, h.HopID)
			if err != nil {
				t.Fatal(err)
			}
			if held.Sealer() != own {
				t.Fatalf("hop %d: holder %d derived its own key schedule", i, addr)
			}
			if n := testing.AllocsPerRun(10, func() { held.Sealer() }); n != 0 {
				t.Fatalf("hop %d: holder %d's schedule costs %.0f allocations per call after the segment: not cached", i, addr, n)
			}
		}
	}
	if len(schedules) != len(tun.Hops) {
		t.Fatalf("%d key schedules for %d anchors, want one per anchor", len(schedules), len(tun.Hops))
	}
	// The owner builds with those schedules too: a build allocates its
	// onion and envelope, and derives nothing.
	build, payload := ns.root.Split("build"), patternData(64)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := BuildForward(tun, nil, s.dest, payload, build); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Fatalf("a build over the tunnel allocates %.0f objects, want 2: the owner derives schedules of its own", n)
	}
}

// TestWarmEngineStreamAllocs: once an engine has run streams, opening and
// finishing another, direct or over a tunnel, allocates nothing. The
// Stream and RecvStream structs are carved from chunks, the send and
// reorder rings are lent from the streams that finished before it, the
// window is its own timer event, and one OnComplete serves every stream.
func TestWarmEngineStreamAllocs(t *testing.T) {
	ns := newNetSys(t, 100, 3, 45)
	ns.net.Link = fixedLink(5 * time.Millisecond)
	src := ns.ov.RandomLive(ns.root.Split("src"))
	dst := ns.ov.RandomLive(ns.root.Split("dst"))
	if src.Ref().Addr == dst.Ref().Addr {
		t.Fatal("src and dst collided; pick another seed")
	}
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	data := patternData(8 * 1024)
	delivered := 0
	onComplete := func(o Outcome) {
		if o.Delivered {
			delivered++
		}
	}
	for _, c := range []struct {
		name string
		open func() *Stream
	}{
		{"direct", func() *Stream {
			return ns.eng.OpenStream(src.Ref().Addr, dst.ID(), dst.Ref().Addr, StreamConfig{Window: 4})
		}},
		{"tunnel", func() *Stream {
			return ns.eng.OpenTunnelStream(in.Node().Ref().Addr, tun, dst.ID(), StreamConfig{Window: 4})
		}},
	} {
		finish := func() {
			s := c.open()
			s.OnComplete = onComplete
			s.WriteAll(data)
			if err := ns.kernel.Run(); err != nil {
				t.Fatal(err)
			}
			if !s.Done() {
				_, why := s.Failed()
				t.Fatalf("%s stream did not finish: %s", c.name, why)
			}
		}
		for i := 0; i < 64; i++ {
			finish() // warm the packet, buffer and ring pools and the maps
		}
		before := delivered
		if n := testing.AllocsPerRun(256, finish); n > 0 {
			t.Errorf("opening and finishing a %s stream on a warm engine allocates %.2f objects, want 0", c.name, n)
		}
		if delivered-before != 257 {
			t.Errorf("%s: OnComplete reported %d deliveries for 257 streams", c.name, delivered-before)
		}
	}
}

// TestStreamOutcomeTimes: a stream and a message report through one
// Outcome, stamped on the kernel's clock: Opened when the stream opened —
// not when it first sent, which a stream handed its content later does
// after — At when it finished, Attempts 1 + its retransmissions and
// FailedAt its failure's reason.
func TestStreamOutcomeTimes(t *testing.T) {
	ns := newNetSys(t, 100, 3, 47)
	ns.net.Link = fixedLink(5 * time.Millisecond)
	in := ns.readyInitiator(t, "a", 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(ns.svc); err != nil {
		t.Fatal(err)
	}
	origin, dest := in.Node().Ref().Addr, id.HashString("outcome")
	const (
		openAt  = 40 * time.Millisecond
		writeAt = 60 * time.Millisecond
		lossAt  = 10 * time.Second
	)
	// want is what each finished stream should report; At is the kernel's
	// clock when OnComplete fires.
	want := map[string]Outcome{}
	got := map[string]Outcome{}
	report := func(name string) func(Outcome) {
		return func(o Outcome) {
			w := want[name]
			w.At = ns.kernel.Now()
			want[name], got[name] = w, o
		}
	}
	var stream *Stream
	ns.kernel.At(openAt, func() {
		stream = ns.eng.OpenTunnelStream(origin, tun, dest, StreamConfig{Window: 4})
		stream.OnComplete = report("stream")
		ns.kernel.At(writeAt, func() { stream.WriteAll(patternData(6000)) })
		want["stream"] = Outcome{Flow: stream.ID(), Delivered: true, Opened: openAt}
		mid := ns.eng.SendMessage(origin, tun, dest, []byte("hello"), 3, report("message"))
		want["message"] = Outcome{Flow: mid, Delivered: true, Opened: openAt, Attempts: 1}
	})
	ns.kernel.At(lossAt, func() {
		// Every transmission is lost from here on: the message's two tries
		// run out.
		ns.net.InstallFaults(&simnet.FaultPlan{Seed: 1, LossRate: 1})
		mid := ns.eng.SendMessage(origin, tun, dest, []byte("lost"), 2, report("lost"))
		want["lost"] = Outcome{Flow: mid, Opened: lossAt, Attempts: 2,
			FailedAt: "segment 0: retransmit budget exhausted after 2 tries"}
	})
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	w := want["stream"]
	w.Attempts = 1 + int(stream.SegsRetx)
	want["stream"] = w
	for _, name := range []string{"stream", "message", "lost"} {
		o, ok := got[name]
		if !ok {
			t.Errorf("%s: no outcome", name)
			continue
		}
		if o != want[name] || o.At <= o.Opened {
			t.Errorf("%s: outcome %+v, want %+v", name, o, want[name])
		}
	}
}

// TestFinishedWindowTimerSparesLentRing: a stream that fails with its
// retransmit timer pending lends its send ring to the next stream opened,
// and when the stale timer fires it must not read or re-send anything in
// that ring, which is now another stream's.
func TestFinishedWindowTimerSparesLentRing(t *testing.T) {
	ns := newNetSys(t, 100, 3, 46)
	ns.net.Link = fixedLink(5 * time.Millisecond)
	src := ns.ov.RandomLive(ns.root.Split("src"))
	dst := ns.ov.RandomLive(ns.root.Split("dst"))
	if src.Ref().Addr == dst.Ref().Addr {
		t.Fatal("src and dst collided; pick another seed")
	}
	sink := &streamSink{}
	sink.install(ns.eng)
	open := func() *Stream {
		return ns.eng.OpenStream(src.Ref().Addr, dst.ID(), dst.Ref().Addr, StreamConfig{Window: 4})
	}
	a := open()
	a.WriteAll(patternData(4 * 1024)) // fills the window and arms the timer
	ring := &a.ring[0]
	a.fail("abandoned by the test")
	if a.ring != nil || a.timerAt == 0 {
		t.Fatalf("failed stream kept its ring (%v) or has no pending timer (at %v)", a.ring != nil, a.timerAt)
	}
	b := open()
	if &b.ring[0] != ring {
		t.Fatal("the next stream of the same window did not take the lent ring")
	}
	data := patternData(400 * 1024) // still in flight when a's timer fires
	b.WriteAll(data)
	if err := ns.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !b.Done() {
		_, why := b.Failed()
		t.Fatalf("stream on the lent ring did not finish: %s", why)
	}
	if a.SegsRetx != 0 || b.SegsRetx != 0 {
		t.Fatalf("retransmissions: failed stream %d, live stream %d; want none on a lossless link", a.SegsRetx, b.SegsRetx)
	}
	if got := sink.buf[len(sink.buf)-len(data):]; !bytes.Equal(got, data) {
		t.Fatal("the live stream's bytes arrived corrupted")
	}
}
