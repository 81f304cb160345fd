package anonfile

import (
	"bytes"
	"errors"
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
	ov   *pastry.Overlay
	mgr  *past.Manager
	dir  *tha.Directory
	svc  *core.Service
	lib  *Library
	root *rng.Stream
}

func newSys(t testing.TB, n, k int, seed uint64) *sys {
	t.Helper()
	root := rng.New(seed)
	ov, err := pastry.Build(pastry.DefaultConfig(), n, root.Split("overlay"))
	if err != nil {
		t.Fatal(err)
	}
	mgr := past.NewManager(ov, k)
	dir := tha.NewDirectory(ov, mgr)
	svc := core.NewService(ov, dir, root.Split("svc"))
	return &sys{ov: ov, mgr: mgr, dir: dir, svc: svc, lib: NewLibrary(svc), root: root}
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

func TestRetrieveEndToEnd(t *testing.T) {
	s := newSys(t, 300, 3, 1)
	content := bytes.Repeat([]byte("tap paper "), 500)
	fid := s.lib.Publish("papers/tap.pdf", content)
	in := s.initiator(t, 20)
	fwd, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Retrieve(s.lib, in, fwd, rep, fid, s.root.Split("r"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Content, content) {
		t.Fatalf("content mismatch")
	}
	if res.Responder != s.ov.OwnerOf(fid).ID() {
		t.Fatalf("responder %s is not the fid owner", res.Responder.Short())
	}
	if len(res.ForwardStats.HopNodes) != 3 || len(res.ReplyStats.HopNodes) != 3 {
		t.Fatalf("hops fwd=%d rep=%d", len(res.ForwardStats.HopNodes), len(res.ReplyStats.HopNodes))
	}
	// Anonymity sanity: the responder is not told the initiator. The
	// request payload contains only fid, K_I, and the reply tunnel; none
	// of the forward hop nodes is the initiator (it never relays its own
	// message in this walk).
	for _, hop := range res.ForwardStats.HopNodes {
		if hop.ID == in.Node().ID() {
			t.Logf("note: initiator happens to serve one of its own hops (possible by chance)")
		}
	}
}

func TestRetrieveUnknownFile(t *testing.T) {
	s := newSys(t, 200, 3, 2)
	in := s.initiator(t, 20)
	fwd, _ := in.FormTunnel(3)
	rep, _ := in.FormTunnel(3)
	_, err := Retrieve(s.lib, in, fwd, rep, id.HashString("missing"), s.root.Split("r"))
	if !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("err = %v, want ErrNoSuchFile", err)
	}
}

func TestRetrieveSurvivesHopFailures(t *testing.T) {
	// The paper's headline use case: kill the current hop node of every
	// hop on both tunnels; retrieval still works.
	s := newSys(t, 400, 3, 3)
	content := []byte("resilient content")
	fid := s.lib.Publish("f", content)
	in := s.initiator(t, 20)
	fwd, _ := in.FormTunnel(3)
	rep, _ := in.FormTunnel(3)
	for _, tun := range []*core.Tunnel{fwd, rep} {
		for _, h := range tun.Hops {
			node, ok := s.dir.HopNode(h.HopID)
			if !ok {
				t.Fatal("hop missing")
			}
			if node.ID() == in.Node().ID() || node.ID() == s.ov.OwnerOf(fid).ID() {
				continue // keep the endpoints alive
			}
			if err := s.ov.Fail(node.Ref().Addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := Retrieve(s.lib, in, fwd, rep, fid, s.root.Split("r"))
	if err != nil {
		t.Fatalf("retrieval failed after hop-node failures: %v", err)
	}
	if !bytes.Equal(res.Content, content) {
		t.Fatalf("content mismatch after failures")
	}
}

func TestRetrieveFailsWhenReplyAnchorLost(t *testing.T) {
	s := newSys(t, 300, 3, 4)
	fid := s.lib.Publish("f", []byte("x"))
	in := s.initiator(t, 20)
	fwd, _ := in.FormTunnel(3)
	rep, _ := in.FormTunnel(3)
	// Destroy the middle reply hop's replica set simultaneously.
	s.mgr.BeginBatch()
	for _, addr := range s.dir.ReplicaAddrs(rep.Hops[1].HopID) {
		if err := s.ov.Fail(addr); err != nil {
			t.Fatal(err)
		}
	}
	s.mgr.EndBatch()
	_, err := Retrieve(s.lib, in, fwd, rep, fid, s.root.Split("r"))
	if !errors.Is(err, ErrReplyLost) {
		t.Fatalf("err = %v, want ErrReplyLost", err)
	}
}

func TestRetrieveWithHints(t *testing.T) {
	s := newSys(t, 400, 3, 5)
	content := []byte("fast content")
	fid := s.lib.Publish("f", content)
	in := s.initiator(t, 20)
	fwd, _ := in.FormTunnel(4)
	rep, _ := in.FormTunnel(4)

	plain, err := Retrieve(s.lib, in, fwd, rep, fid, s.root.Split("r1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := fwd.RefreshHints(s.svc); err != nil {
		t.Fatal(err)
	}
	if err := rep.RefreshHints(s.svc); err != nil {
		t.Fatal(err)
	}
	opt, err := Retrieve(s.lib, in, fwd, rep, fid, s.root.Split("r2"))
	if err != nil {
		t.Fatal(err)
	}
	total := func(r *Result) int { return r.ForwardStats.OverlayHops + r.ReplyStats.OverlayHops }
	if total(opt) >= total(plain) {
		t.Fatalf("hints did not reduce hops: %d vs %d", total(opt), total(plain))
	}
	if opt.ForwardStats.HintHits != 4 {
		t.Fatalf("forward hint hits %d, want 4", opt.ForwardStats.HintHits)
	}
}

func TestUploadUnderLossAndReorder(t *testing.T) {
	// Satellite for the windowed-stream port: a chunked anonymous upload
	// over a 3-hop tunnel survives 10% message loss plus reordering, the
	// reassembled file is byte-identical, and completion is exactly-once.
	s := newSys(t, 300, 3, 6)
	kernel := simnet.NewKernel()
	kernel.MaxSteps = 10_000_000
	net := simnet.NewNetwork(kernel, simnet.DefaultLinkModel(6), s.ov.NumAddrs())
	eng := core.NewNetEngine(s.svc, net)
	srv := ServeUploads(s.lib, eng)

	in := s.initiator(t, 12)
	tun, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tun.RefreshHints(s.svc); err != nil {
		t.Fatal(err)
	}

	net.InstallFaults(&simnet.FaultPlan{Seed: 4, LossRate: 0.1})
	// Deterministic reordering: hold back a third of the messages long
	// enough to land behind their successors.
	net.ExtraDelay = func(src, dst simnet.Addr, msg simnet.Message) simnet.Time {
		if (uint64(src)+uint64(dst)+uint64(msg.SizeBytes()))%3 == 0 {
			return simnet.Time(150 * time.Millisecond)
		}
		return 0
	}

	content := make([]byte, 40_000)
	for i := range content {
		content[i] = byte(i*13 + 5)
	}
	var okDone bool
	fid, st := Upload(eng, in, tun, "papers/uploaded.pdf", content,
		core.StreamConfig{Window: 16}, func(ok bool) { okDone = ok })
	if err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if !okDone {
		_, why := st.Failed()
		t.Fatalf("upload failed under loss+reorder: %s", why)
	}
	got, ok := s.lib.Get(fid)
	if !ok {
		t.Fatal("uploaded file missing from library")
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("reassembled %d bytes, want %d byte-identical", len(got), len(content))
	}
	if srv.Stored[fid] != 1 {
		t.Fatalf("upload completed %d times, want exactly once", srv.Stored[fid])
	}
	if st.SegsRetx == 0 {
		t.Fatal("10% loss produced zero retransmissions; faults not applied?")
	}

	// The published file is now retrievable through the §4 exchange.
	rep, err := in.FormTunnel(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Retrieve(s.lib, in, tun, rep, fid, s.root.Split("r"))
	if err != nil {
		t.Fatalf("retrieving the uploaded file: %v", err)
	}
	if !bytes.Equal(res.Content, content) {
		t.Fatal("retrieved content does not match the upload")
	}
}

func TestRequestResponseCodecs(t *testing.T) {
	req := request{FID: id.HashString("f"), KIPub: []byte("pubkey"), Reply: []byte("tunnel")}
	got, err := decodeRequest(encodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.FID != req.FID || !bytes.Equal(got.KIPub, req.KIPub) || !bytes.Equal(got.Reply, req.Reply) {
		t.Fatalf("request round trip mismatch")
	}
	if _, err := decodeRequest([]byte("junk")); err == nil {
		t.Fatalf("junk request accepted")
	}
	resp := response{SealedFile: []byte("file"), SealedKey: []byte("key")}
	got2, err := decodeResponse(encodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2.SealedFile, resp.SealedFile) || !bytes.Equal(got2.SealedKey, resp.SealedKey) {
		t.Fatalf("response round trip mismatch")
	}
	if _, err := decodeResponse([]byte{0xff}); err == nil {
		t.Fatalf("junk response accepted")
	}
}
