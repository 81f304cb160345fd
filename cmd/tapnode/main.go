// Command tapnode runs one TAP overlay node as an OS process.
//
// A node dials the bulletin board, registers its TCP endpoint, receives
// a transport address and the peer table, and then serves overlay
// traffic: installing tunnel hop anchors, peeling forward and reply
// onion layers, and echoing exit payloads back down reply tunnels.
//
//	tapnode -board 127.0.0.1:7070
//
// With -client the process instead acts as an initiator: it waits for
// -quorum members, carves the other members into a forward tunnel, a
// reply tunnel, and a destination, streams -bytes of random payload
// through the overlay in onion-sealed chunks, and exits 0 printing
// "ROUNDTRIP OK" when the echo matches.
package main

import (
	"bytes"
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"tap/internal/board"
	"tap/internal/obs"
	"tap/internal/procnode"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
)

func main() {
	boardAddr := flag.String("board", "127.0.0.1:7070", "bulletin board host:port")
	listen := flag.String("listen", "127.0.0.1:0", "host:port for overlay traffic")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "board heartbeat interval")
	refresh := flag.Duration("refresh", 2*time.Second, "peer-table refresh interval (server mode)")
	quorum := flag.Int("quorum", 1, "wait until the board has this many members")
	wait := flag.Duration("wait", 60*time.Second, "how long to wait for the quorum")
	client := flag.Bool("client", false, "run one onion-sealed stream round-trip and exit")
	nbytes := flag.Int("bytes", 2048, "client payload size")
	chunk := flag.Int("chunk", 512, "client stream chunk size")
	fwHops := flag.Int("fwhops", 3, "client forward-tunnel length")
	rpHops := flag.Int("rphops", 2, "client reply-tunnel length")
	verbose := flag.Bool("v", false, "log relay activity")
	metricsAddr := flag.String("metrics-addr", "", "host:port for /metrics and /debug/pprof (empty disables)")
	linger := flag.Bool("linger", false, "client mode: after printing the result, wait for stdin EOF before exiting")
	flag.Parse()
	if err := checkSizes(*nbytes, *chunk, *fwHops, *rpHops); err != nil {
		fmt.Fprintf(os.Stderr, "tapnode: %v\n", err)
		os.Exit(2)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	// The metrics registry is nil unless asked for: every layer below
	// treats that as the no-op sink.
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
		bound, stopMetrics, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer stopMetrics()
		// Scraped by the integration test; keep the format stable.
		fmt.Printf("tapnode metrics listening on %s\n", bound)
	}

	tr := tcptransport.New(tcptransport.Config{Codec: procnode.Codec{}, Logf: logf, Registry: reg})
	defer tr.Close()
	hostport, err := tr.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}

	cli, err := board.Dial(*boardAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	addr, peers, err := cli.Register(hostport)
	if err != nil {
		log.Fatal(err)
	}
	cli.StartHeartbeat(*heartbeat)

	node := procnode.New(tr, addr, logf, reg)
	node.SetPeers(peers)
	fmt.Printf("tapnode addr=%d listening on %s\n", addr, hostport)

	if *quorum > 1 {
		peers, err = cli.WaitForPeers(*quorum, *wait)
		if err != nil {
			log.Fatal(err)
		}
		node.SetPeers(peers)
	}

	if *client {
		runClient(node, peers, addr, *fwHops, *rpHops, *nbytes, *chunk)
		if *linger {
			// Hold the process (and its /metrics endpoint) open until the
			// parent closes our stdin — the integration test scrapes the
			// client's counters in this window, then releases us.
			io.Copy(io.Discard, os.Stdin)
		}
		return
	}

	// Server mode: keep the peer table fresh so late joiners (like the
	// client) are dialable, and serve until signaled.
	go func() {
		tick := time.NewTicker(*refresh)
		defer tick.Stop()
		for range tick.C {
			if p, err := cli.Peers(); err == nil {
				node.SetPeers(p)
			}
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

// checkSizes refuses a negative payload size, chunk size or tunnel length
// before the node registers: each would otherwise surface only in client
// mode, as a runtime panic or as an error after the node had joined.
func checkSizes(nbytes, chunk, fw, rp int) error {
	names := []string{"bytes", "chunk", "fwhops", "rphops"}
	for i, v := range []int{nbytes, chunk, fw, rp} {
		if v < 0 {
			return fmt.Errorf("-%s %d: must not be negative", names[i], v)
		}
	}
	return nil
}

// runClient carves the membership into tunnel roles and round-trips an
// onion-sealed stream. Exits the process with the outcome.
func runClient(node *procnode.Node, peers map[transport.Addr]string, self transport.Addr, fw, rp, nbytes, chunk int) {
	var others []transport.Addr
	for a := range peers {
		if a != self {
			others = append(others, a)
		}
	}
	sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
	// The destination is the highest-addressed member and may coincide
	// with a hop host (hosting an anchor and answering as responder are
	// independent roles); only the hop sets themselves must be disjoint.
	if len(others) < fw+rp {
		log.Fatalf("need %d other members for fw %d + rp %d hops, have %d", fw+rp, fw, rp, len(others))
	}
	cfg := procnode.StreamConfig{
		ForwardHops: others[:fw],
		ReplyHops:   others[fw : fw+rp],
		Dest:        others[len(others)-1],
		ChunkSize:   chunk,
	}
	payload := make([]byte, nbytes)
	if _, err := rand.Read(payload); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	echo, err := node.RoundTripStream(cfg, payload)
	if err != nil {
		log.Fatalf("ROUNDTRIP FAILED: %v", err)
	}
	if !bytes.Equal(echo, payload) {
		log.Fatalf("ROUNDTRIP FAILED: echo mismatch (%d vs %d bytes)", len(echo), len(payload))
	}
	fmt.Printf("ROUNDTRIP OK: %d bytes through %d forward + %d reply hops in %v\n",
		nbytes, fw, rp, time.Since(start).Round(time.Millisecond))
}
