package procnode

import "tap/internal/obs"

// nodeMetrics holds one node's instruments (tap_node_*; DESIGN.md §15).
// Built from a possibly-nil registry, in which case every field is nil
// and the increments vanish into obs's no-op sink — the same pattern as
// the transport and board. One node per registry: a process hosting
// several nodes would need instance labels, which the deployment mode
// (one node per process) has no use for.
type nodeMetrics struct {
	peelsForward *obs.Counter // forward onion layers opened
	peelsReply   *obs.Counter // reply onion layers opened

	relaysForwarded *obs.Counter // peeled envelopes relayed to a next hop
	exitPayloads    *obs.Counter // exit-layer payloads handled as responder
	repliesHome     *obs.Counter // reply envelopes consumed as initiator

	anchorInstalls *obs.Counter // anchors installed on behalf of initiators
	anchorRejects  *obs.Counter // installs refused: a different record under a held hopid
	anchorAcks     *obs.Counter // anchor acks received as initiator
	anchorsHeld    *obs.Gauge   // anchors currently stored

	parkRetries  *obs.Counter // sends parked on a lagging membership view
	resolveDrops *obs.Counter // messages dropped after the retry budget
	notifyDrops  *obs.Counter // acks and echoes that found the initiator's channel full

	streamChunks      *obs.Counter   // chunks round-tripped by RoundTripStream
	streamRetransmits *obs.Counter   // anchor redeploys + chunk resends after a timeout
	peelSeconds       *obs.Histogram // time to open one onion layer, either direction
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	dir := func(v string) obs.Label { return obs.Label{Name: "dir", Value: v} }
	const peels = "tap_node_peels_total"
	const peelsHelp = "Onion layers opened, by tunnel direction."
	return &nodeMetrics{
		peelsForward: reg.Counter(peels, peelsHelp, dir("forward")),
		peelsReply:   reg.Counter(peels, peelsHelp, dir("reply")),

		relaysForwarded: reg.Counter("tap_node_relays_forwarded_total", "Peeled envelopes relayed onward."),
		exitPayloads:    reg.Counter("tap_node_exit_payloads_total", "Exit payloads handled as responder."),
		repliesHome:     reg.Counter("tap_node_replies_home_total", "Replies consumed as initiator."),

		anchorInstalls: reg.Counter("tap_node_anchor_installs_total", "Anchors installed for initiators."),
		anchorRejects:  reg.Counter("tap_node_anchor_rejects_total", "Anchor installs refused because the hopid is held with a different record."),
		anchorAcks:     reg.Counter("tap_node_anchor_acks_total", "Anchor acks received as initiator."),
		anchorsHeld:    reg.Gauge("tap_node_anchors", "Anchors currently stored."),

		parkRetries:  reg.Counter("tap_node_park_retries_total", "Sends parked awaiting membership catch-up."),
		resolveDrops: reg.Counter("tap_node_resolve_drops_total", "Messages dropped after the resolve retry budget."),
		notifyDrops:  reg.Counter("tap_node_notify_drops_total", "Acks and echoes dropped because the initiator's notification channel was full."),

		streamChunks:      reg.Counter("tap_node_stream_chunks_total", "Chunks round-tripped by streams."),
		streamRetransmits: reg.Counter("tap_node_stream_retransmits_total", "Stream retransmissions after a timeout."),
		peelSeconds:       reg.Histogram("tap_node_peel_seconds", "Time to open one onion layer.", nil),
	}
}
