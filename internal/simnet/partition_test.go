package simnet

import "testing"

func TestPartitionSymmetricCutsBothDirections(t *testing.T) {
	k, net, got := faultNet(t, nil)
	id := net.StartPartition([]Addr{0}, false)
	net.Send(0, 1, testMsg{size: 10}) // member -> outside: cut
	net.Send(1, 0, testMsg{size: 10}) // outside -> member: cut
	net.Send(1, 2, testMsg{size: 10}) // outside -> outside: flows
	net.Send(0, 0, testMsg{size: 10}) // self: always exempt
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("deliveries = %v, want [1 0 1 0]", got)
	}
	if net.Stats.MessagesPartitioned != 2 {
		t.Fatalf("MessagesPartitioned = %d, want 2", net.Stats.MessagesPartitioned)
	}
	net.HealPartition(id)
	net.Send(0, 1, testMsg{size: 10})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[1] != 1 {
		t.Fatalf("delivery after heal did not arrive (got[1]=%d)", got[1])
	}
	if net.PartitionActive() {
		t.Fatal("PartitionActive after heal")
	}
}

func TestPartitionAsymmetricCutsInboundOnly(t *testing.T) {
	k, net, got := faultNet(t, nil)
	net.StartPartition([]Addr{0}, true)
	net.Send(0, 1, testMsg{size: 10}) // member outbound: flows
	net.Send(1, 0, testMsg{size: 10}) // inbound to member: cut
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[1] != 1 {
		t.Fatal("asymmetric partition cut the member's outbound traffic")
	}
	if got[0] != 0 {
		t.Fatal("asymmetric partition delivered inbound traffic to the member")
	}
	if net.Stats.MessagesPartitioned != 1 {
		t.Fatalf("MessagesPartitioned = %d, want 1", net.Stats.MessagesPartitioned)
	}
}

func TestPartitionMemberToMemberFlows(t *testing.T) {
	k, net, got := faultNet(t, nil)
	net.StartPartition([]Addr{0, 1}, false)
	net.Send(0, 1, testMsg{size: 10})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[1] != 1 {
		t.Fatal("traffic between two members of the same partition was cut")
	}
}
