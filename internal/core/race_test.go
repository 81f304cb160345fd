package core

import (
	"sync"
	"testing"

	"tap/internal/id"
	"tap/internal/simnet"
)

// TestHintCacheConcurrentAccess hammers the HintCache from refresher,
// invalidator, and reader goroutines simultaneously — the deployment
// shape where a background refresher races the engine's send path. Run
// under -race this pins the cache's internal locking; without the lock
// the map accesses fault outright.
func TestHintCacheConcurrentAccess(t *testing.T) {
	s := newSys(t, 100, 3, 7)
	in := s.readyInitiator(t, "race", 12)
	tun, err := in.FormTunnel(4)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewHintCache()
	if err := cache.Refresh(s.svc, tun); err != nil {
		t.Fatal(err)
	}

	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // refresher
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := cache.Refresh(s.svc, tun); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // invalidator
		defer wg.Done()
		for i := 0; i < iters; i++ {
			cache.Invalidate(tun.Hops[i%len(tun.Hops)].HopID)
		}
	}()
	go func() { // reader (the engine's hint lookup)
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = cache.Get(tun.Hops[i%len(tun.Hops)].HopID)
		}
	}()
	wg.Wait()

	// After the dust settles a refresh must fully repopulate the cache.
	if err := cache.Refresh(s.svc, tun); err != nil {
		t.Fatal(err)
	}
	for _, h := range tun.Hops {
		if cache.Get(h.HopID) == simnet.NoAddr {
			t.Fatalf("hop %s missing after final refresh", h.HopID.Short())
		}
	}
}

// TestTunnelRTOConcurrentAccess drives the per-tunnel RTO memory from
// concurrent goroutines, modeling an engine whose ack path (relax),
// timeout path (store), teardown (drop), and send path (load) run on
// different threads over a real transport.
func TestTunnelRTOConcurrentAccess(t *testing.T) {
	ns := newNetSys(t, 50, 3, 11)
	eng := ns.eng

	keys := make([]id.ID, 8)
	for i := range keys {
		keys[i] = id.HashString(string(rune('a' + i)))
	}
	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // timeout path: record backoff
		defer wg.Done()
		for i := 0; i < iters; i++ {
			eng.storeTunnelRTO(keys[i%len(keys)], simnet.Time(i+1))
		}
	}()
	go func() { // ack path: decay toward the floor
		defer wg.Done()
		for i := 0; i < iters; i++ {
			eng.relaxTunnelRTO(keys[i%len(keys)], i%3 == 0)
		}
	}()
	go func() { // teardown path
		defer wg.Done()
		for i := 0; i < iters; i++ {
			eng.relaxTunnelRTO(keys[(i*3)%len(keys)], true)
		}
	}()
	go func() { // send path: seed the next stream's RTO
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = eng.loadTunnelRTO(keys[i%len(keys)])
		}
	}()
	wg.Wait()

	// The memory must still behave: a store is readable, a drop clears.
	eng.storeTunnelRTO(keys[0], 42)
	if got := eng.loadTunnelRTO(keys[0]); got != 42 {
		t.Fatalf("loadTunnelRTO = %v after store", got)
	}
	eng.relaxTunnelRTO(keys[0], true)
	if got := eng.loadTunnelRTO(keys[0]); got != 0 {
		t.Fatalf("loadTunnelRTO = %v after drop", got)
	}
}
