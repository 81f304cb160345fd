// Command tapinspect builds a TAP deployment and prints its internals:
// overlay statistics, a sample node's routing state, a routed path, a
// tunnel's anchors with their replica sets, and the result of the
// overlay/storage invariant checkers. It is the debugging companion to
// cmd/tapsim.
//
// The `metrics` subcommand instead inspects a live process:
//
//	tapinspect metrics -addr 127.0.0.1:9090
//
// scrapes the given /metrics endpoint (tapnode or tapboard started with
// -metrics-addr), strictly validates the exposition, and pretty-prints
// it grouped by family. It exits non-zero on an unreachable endpoint or
// malformed output, which the nightly compose smoke relies on.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"tap/internal/core"
	"tap/internal/experiments"
	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "metrics" {
		runMetrics(os.Args[2:])
		return
	}
	var (
		n      = flag.Int("n", 1000, "network size")
		k      = flag.Int("k", 3, "replication factor")
		length = flag.Int("length", 5, "tunnel length")
		seed   = flag.Uint64("seed", 1, "random seed")
		routes = flag.Int("routes", 5, "sample routes to trace")
	)
	flag.Parse()

	root := rng.New(*seed)
	w, err := experiments.BuildWorld(*n, *k, root)
	if err != nil {
		fail(err)
	}
	ov, mgr, dir := w.OV, w.Mgr, w.Dir

	fmt.Printf("overlay: %d nodes, b=%d, leaf=%d, k=%d, seed=%d\n\n",
		ov.Size(), ov.Config().B, ov.Config().LeafSize, *k, *seed)

	// Routing state of a sample node.
	sample := ov.RandomLive(root.Split("sample"))
	fmt.Printf("sample node %s (addr %d)\n", sample.ID(), sample.Addr())
	fmt.Printf("  leaf set (%d entries):\n", sample.Leaf.Size())
	for _, r := range sample.Leaf.Members() {
		fmt.Printf("    %s\n", r)
	}
	fmt.Printf("  routing table: %d rows, %d entries\n", sample.RT.Rows(), sample.RT.EntryCount())
	for row := 0; row < sample.RT.Rows(); row++ {
		line := fmt.Sprintf("    row %d:", row)
		cnt := 0
		for d := 0; d < 1<<ov.Config().B; d++ {
			if e, ok := sample.RT.Get(row, d); ok {
				line += fmt.Sprintf(" %x→%s", d, e.ID.Short())
				cnt++
			}
		}
		if cnt > 0 {
			fmt.Println(line)
		}
	}
	fmt.Println()

	// Sample routes.
	keys := root.Split("keys")
	for i := 0; i < *routes; i++ {
		var key id.ID
		keys.Bytes(key[:])
		from := ov.RandomLive(keys)
		path, err := ov.RoutePath(from.Ref().Addr, key)
		if err != nil {
			fail(err)
		}
		fmt.Printf("route %s from %s: %d hops:", key.Short(), from.ID().Short(), len(path)-1)
		for _, r := range path {
			fmt.Printf(" %s", r.ID.Short())
		}
		fmt.Println()
	}
	fmt.Println()

	// A tunnel and its anchors.
	node := ov.RandomLive(root.Split("pick"))
	in, err := core.NewInitiator(w.Svc, node, root.Split("init"))
	if err != nil {
		fail(err)
	}
	if err := in.DeployDirect(*length + 3); err != nil {
		fail(err)
	}
	tun, err := in.FormTunnel(*length)
	if err != nil {
		fail(err)
	}
	fmt.Printf("tunnel of length %d owned by %s:\n", tun.Length(), node.ID().Short())
	for i, h := range tun.Hops {
		hop, _ := dir.HopNode(h.HopID)
		fmt.Printf("  hop %d: hopid %s  hop-node %s  replicas:", i+1, h.HopID.Short(), hop.ID().Short())
		for _, a := range dir.ReplicaAddrs(h.HopID) {
			fmt.Printf(" %d", a)
		}
		fmt.Println()
	}
	fmt.Println()

	// Storage distribution: how evenly anchors spread over nodes.
	var stored trace.Sample
	for _, r := range ov.LiveRefs() {
		stored.Add(float64(mgr.StoreAt(r.Addr).Len()))
	}
	fmt.Printf("anchor storage per node: mean %.2f, median %.0f, p95 %.0f, max %.0f\n",
		stored.Mean(), stored.Median(), stored.P95(), stored.Max())

	// Routing cost distribution.
	var hops trace.Sample
	hs := root.Split("hopsample")
	for i := 0; i < 200; i++ {
		var key id.ID
		hs.Bytes(key[:])
		_, h, err := ov.Lookup(ov.RandomLive(hs).Ref().Addr, key)
		if err != nil {
			fail(err)
		}
		hops.Add(float64(h))
	}
	fmt.Printf("route hops over 200 lookups: mean %.2f, p95 %.0f (log_16 N = %.2f)\n\n",
		hops.Mean(), hops.P95(), math.Log(float64(ov.Size()))/math.Log(16))

	// Invariants.
	if err := ov.CheckInvariants(); err != nil {
		fail(fmt.Errorf("overlay invariants: %w", err))
	}
	if err := mgr.CheckInvariants(); err != nil {
		fail(fmt.Errorf("storage invariants: %w", err))
	}
	fmt.Println("invariants: overlay OK, storage OK")
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tapinspect: %v\n", err)
	os.Exit(1)
}
