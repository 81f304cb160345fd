package tcptransport

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tap/internal/obs"
	"tap/internal/wire"
)

// TestStatsAccessorMatchesScrape is the regression test for replacing
// the exported atomic Stats struct with registry-backed counters: the
// compatibility accessor and the scraped exposition must be two views
// of the same atomics, never two bookkeeping paths that can drift.
func TestStatsAccessorMatchesScrape(t *testing.T) {
	reg := obs.NewRegistry()
	a := New(Config{Codec: textCodec{}, Registry: reg})
	b := New(Config{Codec: textCodec{}})
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	bAddr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(1, bAddr)
	cb := newCollector()
	b.Attach(1, cb)

	const n = 25
	for i := 0; i < n; i++ {
		a.Send(0, 1, textMsg{body: []byte("metered")})
	}
	cb.wait(t, n)
	// The writer counts a frame once its Write has returned, and the
	// receiver can deliver the frame before that: wait for the count.
	wantBytes := uint64(n * (wire.FrameHeaderSize + addrPrefixSize + len("metered")))
	for deadline := time.Now().Add(5 * time.Second); a.m.bytesOut.Load() != wantBytes; {
		if time.Now().After(deadline) {
			t.Fatalf("bytes out %d, want %d", a.m.bytesOut.Load(), wantBytes)
		}
		time.Sleep(100 * time.Microsecond)
	}
	a.Send(0, 99, textMsg{body: []byte("void")}) // unknown peer → drop

	st := a.Stats()
	if st.Sent != n+1 || st.Dials != 1 || st.Dropped != 1 {
		t.Fatalf("snapshot %+v", st)
	}
	if st.BytesSent == 0 {
		t.Fatal("no bytes counted")
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	if got := snap.Sum("tap_transport_sent_total"); got != float64(st.Sent) {
		t.Fatalf("scraped sent %v, accessor %d", got, st.Sent)
	}
	if got := snap.Sum("tap_transport_dropped_total"); got != float64(st.Dropped) {
		t.Fatalf("scraped drops %v, accessor %d", got, st.Dropped)
	}
	if got := snap.Sum("tap_transport_dials_total"); got != float64(st.Dials) {
		t.Fatalf("scraped dials %v, accessor %d", got, st.Dials)
	}
	if got, ok := snap.Value("tap_transport_bytes_total", obs.Label{Name: "dir", Value: "out"}); !ok || got != float64(st.BytesSent) {
		t.Fatalf("scraped bytes out %v ok=%v, accessor %d", got, ok, st.BytesSent)
	}
	if got, ok := snap.Value("tap_transport_frames_total", obs.Label{Name: "dir", Value: "out"}); !ok || got != n {
		t.Fatalf("frames out %v ok=%v, want %d", got, ok, n)
	}
	// b received what a framed.
	bFrames := b.Stats()
	if bFrames.Delivered != n {
		t.Fatalf("b delivered %d, want %d", bFrames.Delivered, n)
	}
}

// TestScrapeUnderChurn renders the exposition continuously while
// connections are dying mid-scrape: every dial hands out a pipe whose
// far end closes immediately, so writers churn up and down as fast as
// Send can trigger them. The scrape must stay parseable and the gauges
// must return to rest afterward — queue depth zero, no active outbound
// conns — proving the inc/dec pairing survives teardown races.
func TestScrapeUnderChurn(t *testing.T) {
	reg := obs.NewRegistry()
	d := &memDialer{serve: func(c net.Conn) { c.Close() }}
	a := New(Config{Codec: textCodec{}, Dialer: d, Registry: reg})
	t.Cleanup(a.Close)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn driver
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.SetPeer(1, "mem")
				a.Send(0, 1, textMsg{body: []byte("doomed")})
			}
		}
	}()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() { // concurrent scrapers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := reg.WriteText(&sb); err != nil {
					t.Errorf("render: %v", err)
					return
				}
				if _, err := obs.ParseText(strings.NewReader(sb.String())); err != nil {
					t.Errorf("scrape under churn unparseable: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Let the last writer goroutines unwind, then check rest state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		snap, err := obs.ParseText(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		depth, _ := snap.Value("tap_transport_queue_depth")
		active, _ := snap.Value("tap_transport_conns_active", obs.Label{Name: "dir", Value: "out"})
		opened := snap.Sum("tap_transport_conns_opened_total")
		closed := snap.Sum("tap_transport_conns_closed_total")
		if depth == 0 && active == 0 && opened == closed {
			if opened == 0 {
				t.Fatal("churn opened no connections — test exercised nothing")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges never settled: depth=%v active=%v opened=%v closed=%v",
				depth, active, opened, closed)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
