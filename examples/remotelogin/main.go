// Long-standing remote-login sessions under churn — the paper's
// motivating application. A TAP session and a fixed-node baseline session
// run side by side while nodes keep failing; the baseline dies with its
// first relay, TAP keeps exchanging.
//
//	go run ./examples/remotelogin
package main

import (
	"errors"
	"fmt"
	"log"
	"strings"

	"tap"
	"tap/internal/core"
)

func main() {
	net, err := tap.New(tap.Options{Nodes: 600, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	client, err := net.NewClient("operator")
	if err != nil {
		log.Fatal(err)
	}
	if err := client.DeployAnchors(12); err != nil {
		log.Fatal(err)
	}
	server := tap.KeyOf("ssh://build-box")

	tapSess, err := client.OpenSession(server, 3)
	if err != nil {
		log.Fatal(err)
	}
	fixedSess, err := tap.OpenBaselineSession(net, server, 3)
	if err != nil {
		log.Fatal(err)
	}

	shell := func(req []byte) []byte {
		return []byte(strings.ToUpper(string(req)) + " -> done")
	}

	// Each round, a dozen nodes crash. Sequential failures with k=3 can
	// never break a TAP tunnel (replicas migrate after every crash), but
	// the fixed path dies as soon as one of its relays is hit.
	const killsPerRound = 12
	fmt.Println("round | last victim  | TAP session        | fixed-node session")
	fmt.Println("------+--------------+--------------------+-------------------")
	fixedDead := false
	for round := 1; round <= 12; round++ {
		var victim tap.ID
		for i := 0; i < killsPerRound; i++ {
			// Spare the two endpoints so the comparison isolates path
			// resilience, not endpoint death.
			v, err := net.FailRandom(client.NodeID(), net.OwnerOf(server))
			if err != nil {
				log.Fatal(err)
			}
			victim = v
		}

		tapStatus := "exchange OK"
		if _, err := tapSess.Exchange([]byte(fmt.Sprintf("make test #%d", round)), shell); err != nil {
			tapStatus = "BROKEN: " + err.Error()
		}

		fixedStatus := "dead"
		if !fixedDead {
			if _, err := fixedSess.Exchange([]byte("make test"), shell); err == nil {
				fixedStatus = "exchange OK"
			} else if errors.Is(err, core.ErrRelayDead) {
				fixedStatus = "DIED (relay failed)"
				fixedDead = true
			} else {
				log.Fatal(err)
			}
		}
		fmt.Printf("%5d | %s     | %-18s | %s\n", round, victim.Short(), tapStatus, fixedStatus)
	}
	fmt.Printf("\nTAP completed %d/12 exchanges; the fixed-node session completed %d before dying.\n",
		tapSess.Exchanges(), fixedSess.Exchanges())
	fmt.Println("(144 of 600 nodes died during this run. The baseline's survival is luck of")
	fmt.Println(" the seed; TAP never breaks under one-at-a-time failures with k=3.)")
}
