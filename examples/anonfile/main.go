// Anonymous file retrieval (the paper's §4 application) under targeted
// node failures: the client fetches a file through a forward tunnel and
// receives it over a separate reply tunnel, while we repeatedly kill the
// nodes currently serving the tunnel hops.
//
//	go run ./examples/anonfile
package main

import (
	"bytes"
	"fmt"
	"log"

	"tap"
)

func main() {
	net, err := tap.New(tap.Options{Nodes: 800, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Publish a file; it lives on the node closest to its id (the
	// responder).
	content := bytes.Repeat([]byte("TAP: tunnels without fixed nodes. "), 300)
	fid := net.PublishFile("library/tap-paper.txt", content)
	fmt.Printf("published %d-byte file as %s on node %s\n",
		len(content), fid.Short(), net.OwnerOf(fid).Short())

	client, err := net.NewClient("reader")
	if err != nil {
		log.Fatal(err)
	}
	if err := client.DeployAnchors(16); err != nil {
		log.Fatal(err)
	}

	// A disjoint forward/reply tunnel pair, as §4 requires ("a request
	// tunnel is different from a reply tunnel ... harder for an adversary
	// to correlate a request with a reply").
	fwd, rep, err := client.NewTunnelPair(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nforward tunnel: %v\n", shortIDs(fwd))
	fmt.Printf("reply tunnel:   %v\n", shortIDs(rep))

	// Retrieve once over healthy tunnels.
	got, err := client.RetrieveFileVia(fwd, rep, fid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nretrieval #1 OK (%d bytes, content intact: %v)\n",
		len(got), bytes.Equal(got, content))

	// Now kill the node behind every single hop of both tunnels.
	killed := 0
	for _, tun := range []*tap.Tunnel{fwd, rep} {
		for _, hid := range tun.HopIDs() {
			owner := net.OwnerOf(hid)
			if owner == client.NodeID() || owner == net.OwnerOf(fid) {
				continue
			}
			if err := net.FailNodeOwning(hid); err != nil {
				log.Fatal(err)
			}
			killed++
		}
	}
	fmt.Printf("\nkilled %d tunnel hop nodes (every hop of both tunnels)\n", killed)

	// Same tunnels, same anchors — new hop nodes. Retrieval still works.
	got, err = client.RetrieveFileVia(fwd, rep, fid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrieval #2 OK after the massacre (%d bytes, intact: %v)\n",
		len(got), bytes.Equal(got, content))
	fmt.Println("\nTAP tunnels are defined by hopids, so replica promotion replaced every dead hop.")
}

func shortIDs(t *tap.Tunnel) []string {
	out := make([]string, 0, t.Length())
	for _, hid := range t.HopIDs() {
		out = append(out, hid.Short())
	}
	return out
}
