package tap_test

import (
	"fmt"
	"log"

	"tap"
)

// The canonical TAP flow: bootstrap, form a tunnel, send anonymously,
// survive a hop-node failure.
func Example() {
	net, err := tap.New(tap.Options{Nodes: 400, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	alice, err := net.NewClient("alice")
	if err != nil {
		log.Fatal(err)
	}
	if err := alice.DeployAnchors(8); err != nil {
		log.Fatal(err)
	}
	tun, err := alice.NewTunnel(3)
	if err != nil {
		log.Fatal(err)
	}

	dest := tap.KeyOf("service")
	res, err := alice.Send(tun, dest, []byte("hello"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delivered: %s\n", res.Payload)

	// Kill the node currently serving hop 2; the anchor's replicas
	// promote a successor and the tunnel keeps working.
	if err := net.FailNodeOwning(tun.HopIDs()[1]); err != nil {
		log.Fatal(err)
	}
	res, err = alice.Send(tun, dest, []byte("still works"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after failure: %s\n", res.Payload)
	// Output:
	// delivered: hello
	// after failure: still works
}

// Anonymous file retrieval, the paper's §4 application.
func ExampleClient_RetrieveFile() {
	net, err := tap.New(tap.Options{Nodes: 300, Seed: 8})
	if err != nil {
		log.Fatal(err)
	}
	fid := net.PublishFile("docs/readme", []byte("file body"))
	bob, err := net.NewClient("bob")
	if err != nil {
		log.Fatal(err)
	}
	if err := bob.DeployAnchors(12); err != nil {
		log.Fatal(err)
	}
	content, err := bob.RetrieveFile(fid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", content)
	// Output:
	// file body
}

// Anonymous mail with a reply tunnel: mutual anonymity from TAP
// primitives.
func ExampleClient_SendMail() {
	net, err := tap.New(tap.Options{Nodes: 300, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	sender, _ := net.NewClient("sender")
	recipient, _ := net.NewClient("recipient")
	for _, c := range []*tap.Client{sender, recipient} {
		if err := c.DeployAnchors(16); err != nil {
			log.Fatal(err)
		}
	}
	box := recipient.NewPseudonym()
	if _, err := sender.SendMail(box, []byte("tip"), false); err != nil {
		log.Fatal(err)
	}
	msgs, err := recipient.FetchMail(box)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d message: %s\n", len(msgs), msgs[0].Body)
	// Output:
	// 1 message: tip
}
