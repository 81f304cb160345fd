package main

// adapter.go is the one file through which the end-to-end workloads touch
// the program. The public API it pins is listed in bench/README.md; when
// ROADMAP item 1 replaces procnode with core.NetEngine over tcptransport,
// this file (and layers.go, which holds the per-layer probes) is what a
// follow-up benchmark issue re-points.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"tap/internal/board"
	"tap/internal/experiments"
	"tap/internal/obs"
	"tap/internal/procnode"
	"tap/internal/rng"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
)

// Cluster roles by registration order: three forward hops, two reply
// hops, the responder, the initiator.
const (
	clusterSize  = 7
	forwardHops  = 3
	replyHops    = 2
	responderIdx = forwardHops + replyHops
	initiatorIdx = responderIdx + 1
)

// opTimeout is RoundTripStream's per-wait timeout. procnode retransmits
// only after a wait times out, so an op that returns in less than
// opTimeout provably retransmitted nothing; one that takes longer is
// counted as failed (the "retransmits == 0" gate without a registry).
const opTimeout = time.Second

// cluster is the in-process loopback deployment: one board and seven
// transports on 127.0.0.1:0, each registered through its own board
// client and hosting one procnode.
type cluster struct {
	board   *board.Board
	clients []*board.Client
	trs     []*tcptransport.Transport
	nodes   []*procnode.Node
	regs    []*obs.Registry // per node; nil entries when untraced
	listens []string        // every bound host:port, for the refusal check
	cfg     procnode.StreamConfig
}

// bringUp builds the cluster up to the point where the initiator can
// send. With traced set every node (and the board) gets an obs.Registry.
// On error whatever was started is torn down again.
func bringUp(rec *recorder, parent int, chunkSize int, traced bool) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.tearDown()
		}
	}()
	newReg := func() *obs.Registry {
		if traced {
			return obs.NewRegistry()
		}
		return nil
	}

	s := rec.begin("board.listen", parent)
	c.board = board.New(board.Config{Registry: newReg()})
	boardAddr, err := c.board.Listen("127.0.0.1:0")
	rec.end(s)
	if err != nil {
		return nil, err
	}
	c.listens = append(c.listens, boardAddr)

	addrs := make([]transport.Addr, 0, clusterSize)
	for i := 0; i < clusterSize; i++ {
		reg := newReg()
		s = rec.begin("transport.listen", parent)
		tr := tcptransport.New(tcptransport.Config{Codec: procnode.Codec{}, Registry: reg})
		c.trs = append(c.trs, tr)
		hostport, err := tr.Listen("127.0.0.1:0")
		rec.end(s)
		if err != nil {
			return nil, err
		}
		c.listens = append(c.listens, hostport)

		s = rec.begin("board.register", parent)
		cli, err := board.Dial(boardAddr)
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, cli)
		addr, peers, err := cli.Register(hostport)
		rec.end(s)
		if err != nil {
			return nil, err
		}

		s = rec.begin("procnode.new", parent)
		node := procnode.New(tr, addr, nil, reg)
		node.SetPeers(peers)
		rec.end(s)
		c.nodes = append(c.nodes, node)
		c.regs = append(c.regs, reg)
		addrs = append(addrs, addr)
	}

	s = rec.begin("board.wait_quorum", parent)
	peers, err := c.clients[initiatorIdx].WaitForPeers(clusterSize, 5*time.Second)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("set_peers", parent)
	for _, n := range c.nodes {
		n.SetPeers(peers)
	}
	rec.end(s)

	c.cfg = procnode.StreamConfig{
		ForwardHops: addrs[:forwardHops],
		ReplyHops:   addrs[forwardHops:responderIdx],
		Dest:        addrs[responderIdx],
		ChunkSize:   chunkSize,
		Timeout:     opTimeout,
	}
	return c, nil
}

var (
	errEcho = errors.New("echo differs from payload")
	errSlow = errors.New("op outlived the retransmit timeout")
)

// roundTrip is one TCP op: a full RoundTripStream from the initiator,
// its echo compared with the payload byte for byte.
func (c *cluster) roundTrip(payload []byte) error {
	start := time.Now()
	echo, err := c.nodes[initiatorIdx].RoundTripStream(c.cfg, payload)
	if err != nil {
		return err
	}
	if !bytes.Equal(echo, payload) {
		return errEcho
	}
	if time.Since(start) >= opTimeout {
		return errSlow
	}
	return nil
}

// netCounters is tcptransport's Stats() summed over the cluster.
type netCounters struct {
	frames, bytes, dropped, dials uint64
}

// sub is the change from an earlier reading to this one.
func (n netCounters) sub(o netCounters) netCounters {
	return netCounters{n.frames - o.frames, n.bytes - o.bytes, n.dropped - o.dropped, n.dials - o.dials}
}

func (c *cluster) counters() netCounters {
	var n netCounters
	for _, tr := range c.trs {
		st := tr.Stats()
		n.frames += st.Sent
		n.bytes += st.BytesSent
		n.dropped += st.Dropped
		n.dials += st.Dials
	}
	return n
}

// nodeCounters is what a traced round reads from the nodes' registries,
// summed over the cluster.
type nodeCounters struct {
	peels, retransmits, parkRetries, anchorsHeld float64
}

func (n nodeCounters) sub(o nodeCounters) nodeCounters {
	return nodeCounters{n.peels - o.peels, n.retransmits - o.retransmits, n.parkRetries - o.parkRetries, n.anchorsHeld - o.anchorsHeld}
}

func (c *cluster) nodeCounters() (nodeCounters, error) {
	var n nodeCounters
	for _, reg := range c.regs {
		if reg == nil {
			return n, errors.New("node counters need a traced cluster")
		}
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			return n, err
		}
		snap, err := obs.ParseText(&buf)
		if err != nil {
			return n, err
		}
		n.peels += snap.Sum("tap_node_peels_total")
		n.retransmits += snap.Sum("tap_node_stream_retransmits_total")
		n.parkRetries += snap.Sum("tap_node_park_retries_total")
		n.anchorsHeld += snap.Sum("tap_node_anchors")
	}
	return n, nil
}

// tearDown closes everything bringUp opened. Close on a transport and on
// the board waits for their goroutines, so when it returns the only
// things left to check are the goroutine count and the ports.
func (c *cluster) tearDown() {
	for _, cli := range c.clients {
		cli.Close()
	}
	for _, tr := range c.trs {
		tr.Close()
	}
	if c.board != nil {
		c.board.Close()
	}
}

// --- simulator ---------------------------------------------------------------

// Sizes of the sim_stream workload: its op and its set-up sample.
const (
	simNodes        = 1000
	simFlows        = 250
	simWindow       = 16
	simLossRate     = 0.01
	simSetupTunnels = 64
	simTunnelLength = 3
)

// simResult is what the harness keeps of one ExtThroughput table.
type simResult struct {
	rendered                         string
	delivered, goodput, fctP50, retx float64
}

// simOp runs the simulated stream population once: one (loss, window)
// combination, so one job and one goroutine.
func simOp(seed uint64) (simResult, error) {
	tbl, err := experiments.ExtThroughput(experiments.ExtThroughputParams{
		N: simNodes, Flows: simFlows,
		Windows: []int{simWindow}, LossRates: []float64{simLossRate},
		Seed: seed,
	})
	if err != nil {
		return simResult{}, err
	}
	xs := tbl.Xs()
	if len(xs) != 1 {
		return simResult{}, fmt.Errorf("ext-throughput table has %d rows, want 1", len(xs))
	}
	col := func(format string) float64 { return tbl.Mean(xs[0], fmt.Sprintf(format, simWindow)) }
	var buf bytes.Buffer
	tbl.Render(&buf)
	r := simResult{
		rendered:  buf.String(),
		delivered: col("delivered(w=%d)"),
		goodput:   col("goodput_MBps(w=%d)"),
		fctP50:    col("fct_p50_s(w=%d)"),
		retx:      col("retx_ratio(w=%d)"),
	}
	if math.IsNaN(r.delivered) || math.IsNaN(r.goodput) || math.IsNaN(r.fctP50) || math.IsNaN(r.retx) {
		return simResult{}, errors.New("ext-throughput table lacks an expected series")
	}
	return r, nil
}

// simSetup is sim_stream's set-up sample: a 1000-node world and 64
// deployed tunnels, timed in two spans.
func simSetup(rec *recorder, parent int, seed uint64) error {
	root := rng.New(seed)
	s := rec.begin("experiments.build_world", parent)
	w, err := experiments.BuildWorld(simNodes, 3, root.Split("world"))
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin("experiments.deploy_tunnels", parent)
	_, err = experiments.DeployTunnels(w, simSetupTunnels, simTunnelLength, root.Split("tunnels"))
	rec.end(s)
	return err
}
