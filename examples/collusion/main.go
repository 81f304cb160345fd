// Colluding adversary demo: a fraction of nodes pool every tunnel hop
// anchor they ever store. Watch anchors leak as churn migrates replicas
// onto malicious nodes, tunnels get corrupted over time — and the
// paper's recommended defense, periodic tunnel refresh, keep corruption
// flat.
//
//	go run ./examples/collusion
package main

import (
	"fmt"
	"log"

	"tap"
)

// Demo scale: the paper uses 10^4 nodes, 5,000 tunnels of length 5, and
// 20+ time units, where sub-percent corruption rates are measurable. At
// demo scale (40 tunnels) we shorten the tunnels and churn harder so the
// un-refreshed curve visibly climbs within a few units.
const (
	numClients = 40
	tunnelLen  = 3
	units      = 12
	churnSize  = 60
)

func main() {
	net, err := tap.New(tap.Options{Nodes: 600, Seed: 13})
	if err != nil {
		log.Fatal(err)
	}

	// 10% of nodes are malicious and colluding, per the paper's default.
	adv := net.Adversary()
	colluders := adv.Corrupt(0.10)
	fmt.Printf("%d-node network; adversary controls %d colluding nodes (10%%)\n\n",
		net.Size(), colluders)

	// Two client populations: one keeps its tunnels for the whole run,
	// one refreshes (retires + re-forms) every time unit.
	stale := make([]*tap.Client, numClients)
	fresh := make([]*tap.Client, numClients)
	staleTunnels := make([]*tap.Tunnel, numClients)
	freshTunnels := make([]*tap.Tunnel, numClients)
	for i := range stale {
		stale[i] = mustClient(net, fmt.Sprintf("stale-%d", i))
		fresh[i] = mustClient(net, fmt.Sprintf("fresh-%d", i))
		staleTunnels[i] = mustTunnel(stale[i])
		freshTunnels[i] = mustTunnel(fresh[i])
	}

	fmt.Printf("unit | leaked anchors | un-refreshed corrupted | refreshed corrupted\n")
	fmt.Printf("-----+----------------+------------------------+--------------------\n")
	fmt.Printf("%4d | %14d | %22.3f | %18.3f\n",
		0, adv.LeakedAnchors(), adv.CorruptionRate(staleTunnels), adv.CorruptionRate(freshTunnels))

	for unit := 1; unit <= units; unit++ {
		// One unit of churn: benign nodes leave and join; malicious nodes
		// stay put and accumulate anchors from migrations.
		net.ChurnWave(churnSize, churnSize)

		fmt.Printf("%4d | %14d | %22.3f | %18.3f\n",
			unit, adv.LeakedAnchors(),
			adv.CorruptionRate(staleTunnels),
			adv.CorruptionRate(freshTunnels))

		// The refresh policy: retire old anchors, deploy fresh, re-form.
		for i, c := range fresh {
			if err := c.RetireTunnel(freshTunnels[i]); err != nil {
				log.Fatal(err)
			}
			freshTunnels[i] = mustTunnel(c)
		}
	}

	fmt.Println("\nun-refreshed tunnels age and accumulate leaked hops; refreshed tunnels")
	fmt.Println("reset their exposure every unit — the paper's Figure 5 conclusion.")
}

func mustClient(net *tap.Network, label string) *tap.Client {
	c, err := net.NewClient(label)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.DeployAnchors(tunnelLen); err != nil {
		log.Fatal(err)
	}
	return c
}

func mustTunnel(c *tap.Client) *tap.Tunnel {
	if c.AnchorCount() < tunnelLen {
		if err := c.DeployAnchors(tunnelLen - c.AnchorCount()); err != nil {
			log.Fatal(err)
		}
	}
	t, err := c.NewTunnel(tunnelLen)
	if err != nil {
		log.Fatal(err)
	}
	return t
}
