// Anonymous mail over TAP — the introduction's second motivating
// application. A sender deposits mail for a pseudonym without learning
// whose it is; the recipient drains the box without revealing itself;
// and the recipient's answer rides a single-use reply tunnel back to the
// sender. Hop nodes die along the way; nobody notices.
//
//	go run ./examples/anonmail
package main

import (
	"fmt"
	"log"

	"tap"
)

func main() {
	net, err := tap.New(tap.Options{Nodes: 700, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}

	// Two strangers.
	whistleblower, err := net.NewClient("whistleblower")
	if err != nil {
		log.Fatal(err)
	}
	journalist, err := net.NewClient("journalist")
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range []*tap.Client{whistleblower, journalist} {
		if err := c.DeployAnchors(20); err != nil {
			log.Fatal(err)
		}
	}

	// The journalist publishes a pseudonym — a DHT key nobody can link
	// to their node.
	dropbox := journalist.NewPseudonym()
	fmt.Printf("journalist's pseudonymous dropbox: %s\n", dropbox.Short())
	fmt.Printf("(hosted by node %s, which has no idea whose box it hosts)\n\n", net.OwnerOf(dropbox).Short())

	// The whistleblower deposits a tip with a reply tunnel attached.
	bid, err := whistleblower.SendMail(dropbox, []byte("check the Q3 ledgers"), true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("whistleblower deposited a tip (+single-use reply tunnel, bid %s)\n", bid.Short())
	fmt.Printf("mailbox now holds %d message(s)\n\n", net.PendingMail(dropbox))

	// Some of the network dies. Nobody involved cares.
	for i := 0; i < 40; i++ {
		if _, err := net.FailRandom(whistleblower.NodeID(), journalist.NodeID(), net.OwnerOf(dropbox)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("(40 random nodes failed while the mail sat in the box)")

	// The journalist fetches anonymously.
	msgs, err := journalist.FetchMail(dropbox)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\njournalist fetched %d message(s): %q\n", len(msgs), msgs[0].Body)

	// ...and answers over the attached reply tunnel. Neither party has
	// learned the other's node.
	target, err := journalist.ReplyMail(msgs[0], []byte("received. stay safe."))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reply delivered to bid %s — owned by the whistleblower's node: %v\n",
		target.Short(), net.OwnerOf(target) == whistleblower.NodeID())
}
