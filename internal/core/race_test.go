package core

import (
	"sync"
	"testing"

	"tap/internal/id"
	"tap/internal/simnet"
)

// TestTunnelLinkConcurrentAccess hammers one tunnel's link — hints and
// backoff memory — from five goroutines at once: the deployment shape where
// a background refresher races the engine's timeout path (drop, store), ack
// path (clear), and an application sealing messages and opening streams
// (build, load). Run under -race this pins the link's locking.
func TestTunnelLinkConcurrentAccess(t *testing.T) {
	s := newSys(t, 100, 3, 7)
	in := s.readyInitiator(t, "race", 12)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	// The owner's first use creates the link, before the tunnel is shared.
	if err := tun.RefreshHints(s.svc); err != nil {
		t.Fatal(err)
	}

	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(5)
	go func() { // refresher
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := tun.RefreshHints(s.svc); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // timeout path: repeated expiry drops hints
		defer wg.Done()
		for i := 0; i < iters; i++ {
			tun.dropHint(i % len(tun.Hops))
		}
	}()
	go func() { // send path: seal over the tunnel's hints
		defer wg.Done()
		stream := s.root.Split("race-build")
		for i := 0; i < iters/10; i++ {
			if _, err := BuildForwardHinted(tun, id.HashString("d"), []byte("x"), stream); err != nil {
				t.Error(err)
				return
			}
			if _, err := BuildReplyHinted(tun, id.HashString("b"), stream); err != nil {
				t.Error(err)
				return
			}
			_ = tun.Hint(i % len(tun.Hops))
		}
	}()
	go func() { // timeout path: record backoff
		defer wg.Done()
		for i := 0; i < iters; i++ {
			tun.storeRTO(simnet.Time(i + 1))
		}
	}()
	go func() { // ack path clears it; a new stream reads it
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if i%3 == 0 {
				tun.storeRTO(0)
			}
			_ = tun.loadRTO()
		}
	}()
	wg.Wait()

	// After the dust settles a refresh must re-hint every hop, and the
	// memory must still behave: a store is readable, and a clean run clears.
	if err := tun.RefreshHints(s.svc); err != nil {
		t.Fatal(err)
	}
	for i, h := range tun.Hops {
		if tun.Hint(i) == simnet.NoAddr {
			t.Fatalf("hop %s unhinted after final refresh", h.HopID.Short())
		}
	}
	tun.storeRTO(42)
	if got := tun.loadRTO(); got != 42 {
		t.Fatalf("loadRTO = %v after store", got)
	}
	tun.storeRTO(0)
	if got := tun.loadRTO(); got != 0 {
		t.Fatalf("loadRTO = %v after a clean run cleared it", got)
	}
}
