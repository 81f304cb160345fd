package procnode

import (
	"bytes"
	"testing"
	"time"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/past"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
)

// hopEntry is a tunnel message as it enters one hop: how it is addressed,
// the bytes that hop's anchor opens, the padding, the size on the wire.
type hopEntry struct {
	id    id.ID
	hint  transport.Addr
	bytes []byte
	pad   int
	size  int
}

func (a hopEntry) equal(b hopEntry) bool {
	return a.id == b.id && a.hint == b.hint && bytes.Equal(a.bytes, b.bytes) && a.pad == b.pad && a.size == b.size
}

func forwardEntry(e *core.Envelope) hopEntry {
	return hopEntry{e.HopID, e.Hint, bytes.Clone(e.Sealed), e.Pad, e.SizeBytes()}
}

func replyEntry(e *core.ReplyEnvelope) hopEntry {
	return hopEntry{e.Target, e.Hint, bytes.Clone(e.Onion), e.Pad, e.SizeBytes()}
}

// TestOneHopStepAcrossEngines sends one forward message and one reply over
// one pair of tunnels through all three relays — the logical walker,
// NetEngine on the simulated network, and procnode Nodes on a transport —
// and checks that each hop is entered by the same message everywhere: the
// one core.Envelope.Peel and ReplyEnvelope.Peel produce when the test takes
// the hop steps itself with the tunnel owner's anchors. The same anchors
// are deployed in the simulated world and installed on Nodes attached at
// the simulated hop nodes' addresses, so a hinted message is the same bytes
// in both.
//
// What each relay shows differs. procnode hands every Node the envelope
// itself. NetEngine's packets are opaque outside core: the network's send
// hook yields the sealed bytes (core.WireBytes) and wire size of each
// transmission, the hop filter the hopid being served and where, and the
// padding follows from the sizes. The walker's envelope is private: it
// shows each hop's id and node, and the bytes it ends with — every layer is
// authenticated, so the right end implies the right steps. Without hints
// procnode sits out: it has no DHT to route a bare hopid with.
func TestOneHopStepAcrossEngines(t *testing.T) {
	const nodes, hops = 300, 3
	root := rng.New(77)
	ov, err := pastry.Build(pastry.DefaultConfig(), nodes, root.Split("overlay"))
	if err != nil {
		t.Fatal(err)
	}
	dir := tha.NewDirectory(ov, past.NewManager(ov, 3))
	svc := core.NewService(ov, dir, root.Split("svc"))
	kernel := simnet.NewKernel()
	net := simnet.NewNetwork(kernel, simnet.DefaultLinkModel(77), ov.NumAddrs())
	eng := core.NewNetEngine(svc, net)

	in, err := core.NewInitiator(svc, ov.RandomLive(root.Split("pick")), root.Split("init"))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.DeployDirect(4 * hops); err != nil {
		t.Fatal(err)
	}
	tuns, err := in.FormDisjointTunnels(2, hops)
	if err != nil {
		t.Fatal(err)
	}
	fw, rp := tuns[0], tuns[1]
	from := in.Node().Ref().Addr

	// The deployed side: an address outside the simulated world is both
	// the exit's destination and the reply's bid.
	const sink = transport.Addr(nodes + 1000)
	dest := NodeID(sink)
	payload := []byte("one message, three relays, one hop step")
	data := []byte("reply data no hop touches")

	for _, hinted := range []bool{false, true} {
		name := "basic" // an unrefreshed tunnel builds the basic message
		if hinted {
			name = "hinted"
			for _, tun := range tuns {
				if err := tun.RefreshHints(svc); err != nil {
					t.Fatal(err)
				}
			}
		}
		t.Run(name, func(t *testing.T) {
			env, err := core.BuildForwardHinted(fw, dest, payload, root.Split("fw-"+name))
			if err != nil {
				t.Fatal(err)
			}
			rt, err := core.BuildReplyHinted(rp, dest, root.Split("rp-"+name))
			if err != nil {
				t.Fatal(err)
			}
			renv := &core.ReplyEnvelope{Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: data}

			// The reference: the hop steps, taken here.
			var wantFw, wantRp []hopEntry
			step := &core.Envelope{HopID: env.HopID, Hint: env.Hint, Sealed: bytes.Clone(env.Sealed)}
			for i := range fw.Hops {
				wantFw = append(wantFw, forwardEntry(step))
				layer, err := step.Peel(fw.Hops[i].Anchor)
				if err != nil {
					t.Fatal(err)
				}
				if exit := i == hops-1; layer.IsExit != exit || (exit && !bytes.Equal(layer.Payload, payload)) {
					t.Fatalf("reference peel %d: exit=%v payload %q", i, layer.IsExit, layer.Payload)
				}
			}
			rstep := &core.ReplyEnvelope{Target: renv.Target, Hint: renv.Hint, Onion: bytes.Clone(renv.Onion), Data: data}
			for i := range rp.Hops {
				wantRp = append(wantRp, replyEntry(rstep))
				if err := rstep.Peel(rp.Hops[i].Anchor); err != nil {
					t.Fatal(err)
				}
			}
			home := replyEntry(rstep) // what the last reply hop sends on: the bid, the fake onion
			if home.id != dest {
				t.Fatalf("reference reply ends at %s, want the bid", home.id.Short())
			}
			// The step pads: one wire size from end to end. (Every relay
			// below is compared with this reference, so this is where a
			// Peel that stopped padding shows in all of them.)
			for _, chain := range [][]hopEntry{wantFw, append(wantRp[:hops:hops], home)} {
				for _, w := range chain {
					if w.size != chain[0].size {
						t.Fatalf("reference: wire size %d after %d", w.size, chain[0].size)
					}
				}
			}

			// The walker: each hop's id and node, and the end.
			var served []hopEntry
			svc.HopFilter = func(addr simnet.Addr, hopID id.ID) bool {
				served = append(served, hopEntry{id: hopID, hint: addr})
				return true
			}
			checkServed := func(engine string, want []hopEntry) {
				t.Helper()
				if len(served) != len(want) {
					t.Fatalf("%s served %d hops, want %d", engine, len(served), len(want))
				}
				for i, w := range want {
					if served[i].id != w.id || (hinted && served[i].hint != w.hint) {
						t.Fatalf("%s hop %d: served %s at node %d, want %s at %d",
							engine, i, served[i].id.Short(), served[i].hint, w.id.Short(), w.hint)
					}
				}
				served = nil
			}
			fres, err := svc.DeliverForward(from, env)
			if err != nil {
				t.Fatal(err)
			}
			checkServed("walker forward", wantFw)
			if fres.Dest != dest || !bytes.Equal(fres.Payload, payload) || fres.Stats.CryptoOps != hops {
				t.Fatalf("walker forward ended at %s with %q after %d peels", fres.Dest.Short(), fres.Payload, fres.Stats.CryptoOps)
			}
			rres, err := svc.DeliverReply(fres.DestNode.Addr, renv)
			if err != nil {
				t.Fatal(err)
			}
			checkServed("walker reply", wantRp)
			if rres.Target != home.id || !bytes.Equal(rres.Remainder, home.bytes) || !bytes.Equal(rres.Data, data) {
				t.Fatalf("walker reply ended at %s with a remainder of %d bytes, want %s and %d",
					rres.Target.Short(), len(rres.Remainder), home.id.Short(), len(home.bytes))
			}

			// NetEngine: with one flow in flight, the last transmission
			// before a hop is served is the message entering it (none, when
			// the origin is its own first hop), and every transmission of
			// the flow must be one size.
			var last hopEntry // hint: where the transmission was sent
			var entered []hopEntry
			sizes := make(map[int]bool)
			net.SendHook = func(_, to simnet.Addr, msg simnet.Message) {
				if b := core.WireBytes(msg); b != nil {
					last = hopEntry{hint: to, bytes: bytes.Clone(b[0])}
					sizes[msg.SizeBytes()] = true
				}
			}
			svc.HopFilter = func(addr simnet.Addr, hopID id.ID) bool {
				got := hopEntry{id: hopID, hint: simnet.NoAddr, bytes: last.bytes}
				if hinted && (last.hint == addr || last.hint == simnet.NoAddr) {
					got.hint = addr // served where the hint sent it
				}
				entered = append(entered, got)
				return true
			}
			runFlow := func(engine string, want []hopEntry, send func(done func(core.Outcome))) (wire int) {
				t.Helper()
				last, entered = hopEntry{hint: simnet.NoAddr, bytes: want[0].bytes}, nil
				clear(sizes)
				var out core.Outcome
				send(func(o core.Outcome) { out = o })
				if err := kernel.Run(); err != nil {
					t.Fatal(err)
				}
				if !out.Delivered {
					t.Fatalf("%s: %+v", engine, out)
				}
				if len(entered) != len(want) {
					t.Fatalf("%s served %d hops, want %d", engine, len(entered), len(want))
				}
				for i, w := range want {
					if g := entered[i]; g.id != w.id || g.hint != w.hint || !bytes.Equal(g.bytes, w.bytes) {
						t.Fatalf("%s hop %d entered by {%s, hint %d, %d bytes}, want {%s, hint %d, %d bytes}",
							engine, i, g.id.Short(), g.hint, len(g.bytes), w.id.Short(), w.hint, len(w.bytes))
					}
				}
				if len(sizes) != 1 {
					t.Fatalf("%s: wire size changes along the tunnel: %v", engine, sizes)
				}
				for wire = range sizes {
				}
				return wire
			}
			fwWire := runFlow("NetEngine forward", wantFw, func(done func(core.Outcome)) { eng.SendForward(from, env, done) })
			rpWire := runFlow("NetEngine reply", wantRp, func(done func(core.Outcome)) { eng.SendReply(fres.DestNode.Addr, renv, done) })
			net.SendHook, svc.HopFilter = nil, nil
			// A packet is the envelope plus one fixed header: with equal
			// bytes and equal sizes at every hop, the padding is equal too.
			if hdr := fwWire - wantFw[0].size; hdr <= 0 || hdr != rpWire-wantRp[0].size {
				t.Fatalf("NetEngine wire sizes %d and %d are not the envelopes' %d and %d plus one header",
					fwWire, rpWire, wantFw[0].size, wantRp[0].size)
			}

			if !hinted {
				return
			}
			// procnode: a Node at each hinted address, behind a recorder.
			tr := tcptransport.New(tcptransport.Config{Codec: Codec{}})
			defer tr.Close()
			sunk := make(chan transport.Message, 4)
			tr.Attach(sink, transport.HandlerFunc(func(_ transport.Addr, m transport.Message) { sunk <- m }))
			var fwIn, rpIn []hopEntry // written on the dispatch loop, read after the sink has received
			at := make(map[transport.Addr]*Node)
			for _, tun := range tuns {
				for i, h := range tun.Hops {
					addr := tun.Hint(i)
					n := at[addr]
					if n == nil {
						n = New(tr, addr, t.Logf, nil)
						n.SetPeers(map[transport.Addr]string{sink: ""})
						at[addr] = n
						tr.Detach(addr)
						tr.Attach(addr, transport.HandlerFunc(func(src transport.Addr, m transport.Message) {
							switch e := m.(type) {
							case *core.Envelope:
								fwIn = append(fwIn, forwardEntry(e))
							case *core.ReplyEnvelope:
								rpIn = append(rpIn, replyEntry(e))
							}
							n.Deliver(src, m)
						}))
					}
					if !n.installAnchor(h.Anchor) {
						t.Fatalf("anchor %s refused", h.HopID.Short())
					}
				}
			}
			await := func() transport.Message {
				t.Helper()
				select {
				case m := <-sunk:
					return m
				case <-time.After(5 * time.Second):
					t.Fatal("nothing reached the sink")
					return nil
				}
			}
			compare := func(engine string, got, want []hopEntry) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s served %d hops, want %d", engine, len(got), len(want))
				}
				for i := range want {
					if !got[i].equal(want[i]) {
						t.Fatalf("%s hop %d entered by a different message than the reference", engine, i)
					}
				}
			}
			tr.Send(sink, env.Hint, &core.Envelope{HopID: env.HopID, Hint: env.Hint, Sealed: bytes.Clone(env.Sealed)})
			if d, ok := await().(*DataMsg); !ok || d.Dest != dest || !bytes.Equal(d.Payload, payload) {
				t.Fatalf("procnode exit delivered %+v", d)
			}
			compare("procnode forward", fwIn, wantFw)
			tr.Send(sink, renv.Hint, &core.ReplyEnvelope{Target: renv.Target, Hint: renv.Hint, Onion: bytes.Clone(renv.Onion), Data: data})
			r, ok := await().(*core.ReplyEnvelope)
			if !ok || !replyEntry(r).equal(home) || !bytes.Equal(r.Data, data) {
				t.Fatalf("procnode reply came home as %+v", r)
			}
			compare("procnode reply", rpIn, wantRp)
		})
	}
}
