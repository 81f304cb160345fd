package integration

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"tap/internal/obs"
)

// scrape fetches and strictly parses one process's /metrics endpoint.
func scrape(t *testing.T, addr string) *obs.Snapshot {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scraping %s: %v", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scraping %s: status %s", addr, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("scraping %s: content type %q, want %q", addr, ct, obs.ContentType)
	}
	snap, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scraping %s: unparseable exposition: %v", addr, err)
	}
	return snap
}

// sumAcross totals one series (across label sets) over many snapshots.
func sumAcross(snaps []*obs.Snapshot, name string) float64 {
	total := 0.0
	for _, s := range snaps {
		total += s.Sum(name)
	}
	return total
}

func valueAcross(snaps []*obs.Snapshot, name string, labels ...obs.Label) float64 {
	total := 0.0
	for _, s := range snaps {
		if v, ok := s.Value(name, labels...); ok {
			total += v
		}
	}
	return total
}

// TestMetricsScrapeAcrossProcesses is the observability layer's
// headline acceptance test: the same seven-process deployment as
// TestFiveProcessRoundTrip, every process started with -metrics-addr,
// and after the round-trip the test scrapes all seven endpoints and
// asserts cross-process conservation invariants — counters kept by
// independent OS processes must cohere when added up.
//
// The client runs with -linger, holding its process (and /metrics
// endpoint) open until this test closes its stdin, so the client's own
// counters are scrapable after the stream completes.
func TestMetricsScrapeAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dir := t.TempDir()
	boardBin, nodeBin := buildBinaries(t, dir)

	const (
		relays  = 5
		fwHops  = 3
		rpHops  = 2
		nBytes  = 12288
		chunkSz = 256
		chunks  = nBytes / chunkSz // 48: three of the stream's 16-chunk windows
		anchors = fwHops + rpHops
	)

	bp := startProc(t, boardBin, "-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	line := expectLine(t, bp.out, "board", "tapboard metrics listening on", 10*time.Second)
	boardMetrics := strings.TrimSpace(strings.TrimPrefix(line, "tapboard metrics listening on "))
	line = expectLine(t, bp.out, "board", "tapboard listening on", 10*time.Second)
	boardAddr := strings.TrimSpace(strings.TrimPrefix(line, "tapboard listening on "))

	var nodeMetrics []string
	for i := 0; i < relays; i++ {
		rp := startProc(t, nodeBin, "-board", boardAddr, "-refresh", "200ms",
			"-metrics-addr", "127.0.0.1:0")
		what := fmt.Sprintf("relay %d", i)
		line := expectLine(t, rp.out, what, "tapnode metrics listening on", 10*time.Second)
		nodeMetrics = append(nodeMetrics, strings.TrimSpace(strings.TrimPrefix(line, "tapnode metrics listening on ")))
		expectLine(t, rp.out, what, "tapnode addr=", 10*time.Second)
	}

	cp := startProc(t, nodeBin,
		"-board", boardAddr, "-client", "-linger", "-quorum", fmt.Sprint(relays+1),
		"-fwhops", fmt.Sprint(fwHops), "-rphops", fmt.Sprint(rpHops),
		"-bytes", fmt.Sprint(nBytes), "-chunk", fmt.Sprint(chunkSz),
		"-metrics-addr", "127.0.0.1:0")
	line = expectLine(t, cp.out, "client", "tapnode metrics listening on", 10*time.Second)
	clientMetrics := strings.TrimSpace(strings.TrimPrefix(line, "tapnode metrics listening on "))
	nodeMetrics = append(nodeMetrics, clientMetrics)
	expectLine(t, cp.out, "client", "ROUNDTRIP OK", 60*time.Second)

	// Let in-flight frames land: rescrape all transport-bearing processes
	// until total frames out == total frames in and the totals stop
	// moving. Everything below asserts on the settled snapshots.
	var snaps []*obs.Snapshot
	var prevOut, prevIn float64 = -1, -1
	deadline := time.Now().Add(20 * time.Second)
	for {
		snaps = snaps[:0]
		for _, addr := range nodeMetrics {
			snaps = append(snaps, scrape(t, addr))
		}
		out := valueAcross(snaps, "tap_transport_frames_total", obs.Label{Name: "dir", Value: "out"})
		in := valueAcross(snaps, "tap_transport_frames_total", obs.Label{Name: "dir", Value: "in"})
		if out == in && out == prevOut && in == prevIn {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frame totals never settled: out=%v in=%v (prev out=%v in=%v)", out, in, prevOut, prevIn)
		}
		prevOut, prevIn = out, in
		time.Sleep(200 * time.Millisecond)
	}

	// Invariant 1 — transport conservation: across the six overlay
	// processes, every frame written to a socket was read from one. The
	// quiesce loop above established equality; pin the totals are real.
	framesOut := valueAcross(snaps, "tap_transport_frames_total", obs.Label{Name: "dir", Value: "out"})
	if framesOut == 0 {
		t.Fatal("no frames crossed any socket — the round-trip cannot have run over TCP")
	}
	bytesOut := valueAcross(snaps, "tap_transport_bytes_total", obs.Label{Name: "dir", Value: "out"})
	bytesIn := valueAcross(snaps, "tap_transport_bytes_total", obs.Label{Name: "dir", Value: "in"})
	if bytesOut != bytesIn {
		t.Errorf("byte conservation: %v written vs %v read", bytesOut, bytesIn)
	}

	// Invariant 2 — no overload anywhere: a healthy localhost run never
	// fills a send queue, so every queue_full drop is a bug.
	if drops := valueAcross(snaps, "tap_transport_dropped_total", obs.Label{Name: "reason", Value: "queue_full"}); drops != 0 {
		t.Errorf("queue_full drops = %v, want 0", drops)
	}

	// Invariant 3 — onion-peel work conservation: each chunk is peeled
	// once per forward hop and each echo once per reply hop, summed over
	// whichever relays hosted the anchors. Nothing is lost on a healthy
	// localhost, so the client re-sent nothing and the counts are exact:
	// a window that re-sent what was merely still in flight would add.
	if retx := sumAcross(snaps, "tap_node_stream_retransmits_total"); retx != 0 {
		t.Errorf("stream retransmits = %v, want 0", retx)
	}
	if peels := valueAcross(snaps, "tap_node_peels_total", obs.Label{Name: "dir", Value: "forward"}); peels != fwHops*chunks {
		t.Errorf("forward peels = %v, want %d (%d hops x %d chunks)", peels, fwHops*chunks, fwHops, chunks)
	}
	if peels := valueAcross(snaps, "tap_node_peels_total", obs.Label{Name: "dir", Value: "reply"}); peels != rpHops*chunks {
		t.Errorf("reply peels = %v, want %d (%d hops x %d chunks)", peels, rpHops*chunks, rpHops, chunks)
	}

	// Invariant 4 — anchor conservation: the client deployed exactly
	// fw+rp anchors; they live on the relays (hop IDs are unique and a
	// redeployed record is an idempotent re-install, so never a
	// duplicate), and the client cannot have consumed more acks than
	// installations that were acknowledged.
	if held := sumAcross(snaps, "tap_node_anchors"); held != anchors {
		t.Errorf("anchors held across relays = %v, want %d", held, anchors)
	}
	installs := sumAcross(snaps, "tap_node_anchor_installs_total")
	if installs < anchors {
		t.Errorf("anchor installs = %v, want >= %d", installs, anchors)
	}
	clientSnap := scrape(t, clientMetrics)
	if acks := clientSnap.Sum("tap_node_anchor_acks_total"); acks < anchors || acks > installs {
		t.Errorf("client anchor acks = %v, want in [%d, %v]", acks, anchors, installs)
	}

	// Invariant 5 — stream accounting: the client round-tripped every
	// chunk; with nothing re-sent the responder handled exactly that many
	// exit payloads and the client consumed exactly one reply per chunk,
	// none of them refused by a full notification channel.
	if got := clientSnap.Sum("tap_node_stream_chunks_total"); got != chunks {
		t.Errorf("client stream chunks = %v, want %d", got, chunks)
	}
	if exits := sumAcross(snaps, "tap_node_exit_payloads_total"); exits != chunks {
		t.Errorf("exit payloads = %v, want %d", exits, chunks)
	}
	if home := clientSnap.Sum("tap_node_replies_home_total"); home != chunks {
		t.Errorf("client replies home = %v, want %d", home, chunks)
	}
	if drops := sumAcross(snaps, "tap_node_notify_drops_total"); drops != 0 {
		t.Errorf("notification drops = %v, want 0", drops)
	}

	// Invariant 6 — the board agrees with the process count: 5 relays
	// plus the lingering client are registered right now.
	boardSnap := scrape(t, boardMetrics)
	if members, ok := boardSnap.Value("tap_board_members"); !ok || members != relays+1 {
		t.Errorf("board members = %v, want %d", members, relays+1)
	}
	if regs := boardSnap.Sum("tap_board_registrations_total"); regs < relays+1 {
		t.Errorf("board registrations = %v, want >= %d", regs, relays+1)
	}

	// pprof rides the same debug listener on every process.
	resp, err := http.Get("http://" + clientMetrics + "/debug/pprof/")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("client pprof index: err=%v status=%v", err, resp)
	}
	if resp != nil {
		resp.Body.Close()
	}

	// Release the lingering client and require a clean exit.
	cp.closeStdin(t)
	if err := cp.wait(30 * time.Second); err != nil {
		t.Fatalf("client exited with error: %v\n%s", err, cp.buf.String())
	}
}
