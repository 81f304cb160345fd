package procnode

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"strconv"
	"sync"
	"time"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/obs"
	"tap/internal/rng"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
	"tap/internal/wire"
)

// NodeID derives a node's DHT identifier from its transport address.
// Every member computes the same mapping, which is what lets the
// full-membership index resolve exit destinations and reply tails
// without a directory service.
func NodeID(addr transport.Addr) id.ID {
	var b [len("tapnode/") + 20]byte // the prefix and any int64 in decimal
	return id.Hash(strconv.AppendInt(append(b[:0], "tapnode/"...), int64(addr), 10))
}

// Node is one overlay member: an anchor store plus the relay logic for
// forward envelopes, reply envelopes, and exit payloads. Handler state —
// the anchor store and its spare key schedule, the responder's echo key
// schedule and scratch, the exit's DataMsg, the AnchorAck — is touched only
// by deliveries and Schedule callbacks, which the transport runs under its
// one dispatch lock (the seam's serialization contract, the same
// discipline the simulated engines rely on), so it needs no lock of its
// own; what a handler sends from it, send encodes before returning or parks
// a copy of. Stream state — the send window, its slots and timer, the
// tunnels a call builds, the request buffer, the nonce stream and the
// anchor generator — belongs to the one RoundTripStream call streamMu
// admits, and only its goroutine drives the window. The nonce stream
// serves every call the node makes, and the hops and the responder see its
// draws in the clear, so it must be unpredictable as well as non-repeating:
// one who could predict it would link the node's calls over different
// tunnels (newNonces). The membership index, which SetPeers writes from
// the joining goroutine, carries its own lock; handlers and the stream meet
// only on channels.
type Node struct {
	Addr transport.Addr
	ID   id.ID

	tr   *tcptransport.Transport
	logf func(format string, args ...any)
	m    *nodeMetrics

	anchors map[id.ID]heldAnchor
	spare   tha.Anchor // the last first-peeled record, its schedule in the one cell no held record has (peelAnchor)

	// echoKey and echoSealer are the responder's one-entry key-schedule
	// cache: the last request's K_I and its schedule (echoSealerFor).
	echoKey    crypt.Key
	echoSealer crypt.Sealer
	echoBuf    []byte             // where the responder seals each echo
	echo       core.ReplyEnvelope // the envelope that carries it
	exit       DataMsg            // the message an exit payload leaves in
	ack        AnchorAck          // the message an install is acknowledged in

	// byID is the full-membership node-ID index. Unlike anchors it is
	// written off-loop (SetPeers runs on the joining goroutine), so it
	// carries its own lock.
	idMu sync.RWMutex
	byID map[id.ID]transport.Addr // nodeID → transport address

	streamMu  sync.Mutex
	initiator initiator      // the window, its slots and timer
	req       []byte         // where every request's exit payload is encoded
	nonces    *rng.Stream    // the onion builders' nonces and padding; made by the first call
	gen       *tha.Generator // the node's anchor generator; made by the first call
	// Initiator-side notification channels, consumed by RoundTripStream,
	// and the reply buffers it is done with (tcptransport's peer.free idiom).
	acks      chan id.ID
	replies   chan []byte
	replyFree chan []byte
}

// notifyDepth is the depth of the initiator's notification channels: the
// most answers one stream can have outstanding, every request of a full
// window — installs or chunks — answered once per send. A notification
// that finds its channel full is dropped and counted
// (tap_node_notify_drops_total); the stream recovers it as it would a lost
// frame.
const notifyDepth = streamWindow * (1 + streamRetries)

// New attaches a node at addr on tr. Pass a nil logf for silence and a
// nil reg to run without metrics (obs's no-op sink).
func New(tr *tcptransport.Transport, addr transport.Addr, logf func(format string, args ...any), reg *obs.Registry) *Node {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	n := &Node{
		Addr:      addr,
		ID:        NodeID(addr),
		tr:        tr,
		logf:      logf,
		m:         newNodeMetrics(reg),
		anchors:   make(map[id.ID]heldAnchor),
		byID:      map[id.ID]transport.Addr{NodeID(addr): addr},
		acks:      make(chan id.ID, notifyDepth),
		replies:   make(chan []byte, notifyDepth),
		replyFree: make(chan []byte, streamWindow), // a window's echoes: what is in flight at once
	}
	tr.Attach(addr, n)
	return n
}

// SetPeers installs the bulletin board's peer table: transport endpoints
// for dialing and the node-ID index for destination resolution. The node
// is left knowing exactly that table and itself: a member the board has
// pruned is forgotten here too, its endpoint, queue and down mark with it.
func (n *Node) SetPeers(peers map[transport.Addr]string) {
	n.idMu.Lock()
	defer n.idMu.Unlock()
	for nid, a := range n.byID {
		if _, member := peers[a]; !member && a != n.Addr {
			delete(n.byID, nid)
			n.tr.RemovePeer(a)
		}
	}
	for a, hp := range peers {
		if a != n.Addr {
			n.tr.SetPeer(a, hp)
		}
		n.byID[NodeID(a)] = a
	}
}

// lookupID resolves a node ID through the membership index.
func (n *Node) lookupID(target id.ID) (transport.Addr, bool) {
	n.idMu.RLock()
	defer n.idMu.RUnlock()
	a, ok := n.byID[target]
	return a, ok
}

// heldAnchor is one installed anchor and how many layers it has peeled,
// counted only as far as the retention rule needs.
type heldAnchor struct {
	tha.Anchor
	peels uint8 // saturates at 2, the peel from which the record has a key schedule
}

// installAnchor stores a, first writer wins — the rule the simulator's
// replica store applies (past.Manager.Insert refuses a stored key). Every
// earlier hop of a tunnel learns the next hopid, so an install that could
// overwrite would let any of them swap a live hop's key. The identical
// record again is the initiator retransmitting after a lost ack: accepted
// and re-acked, and whatever the held copy has cached stays.
func (n *Node) installAnchor(a tha.Anchor) bool {
	if held, ok := n.anchors[a.HopID]; ok {
		same := subtle.ConstantTimeCompare(held.Key[:], a.Key[:]) &
			subtle.ConstantTimeCompare(held.PWHash[:], a.PWHash[:])
		return same == 1
	}
	n.anchors[a.HopID] = heldAnchor{Anchor: a}
	n.m.anchorsHeld.Set(int64(len(n.anchors)))
	return true
}

// peelAnchor returns the anchor to open one layer addressed to hopID
// with. A held record gets a key schedule only at its second peel: a
// tunnel that carries one message (tunnel formation, a probe) then never
// pins the ~1.3 KiB of AES-GCM state behind its ~80-byte record — nothing
// here evicts anchors, so retaining at install would make the anchor flood
// the paper's puzzle prices a 15-fold memory amplifier. The first peel
// derives into the node's spare cell, re-keying it in place when it holds
// another record's schedule, and the second adopts the spare, so a stream
// derives each key once; only when another first peel re-keyed the spare
// in between does the second derive again, into a cell of its own. A
// relay thus retains one schedule beyond those of its held records.
func (n *Node) peelAnchor(hopID id.ID) (tha.Anchor, bool) {
	h, ok := n.anchors[hopID]
	if !ok || h.peels == 2 {
		return h.Anchor, ok
	}
	h.peels++
	switch {
	case h.peels == 1:
		n.spare = h.Anchor.Rekeyed(n.spare)
		n.anchors[hopID] = h
		return n.spare, true
	case n.spare.HasSealerCache() && n.spare.HopID == hopID:
		h.Anchor, n.spare = n.spare, tha.Anchor{}
	default:
		h.Anchor = h.Anchor.Rekeyed(tha.Anchor{})
	}
	n.anchors[hopID] = h
	return h.Anchor, true
}

// AnchorCount reports how many anchors this node currently holds. Only
// meaningful from a delivery or callback, or after traffic has quiesced.
func (n *Node) AnchorCount() int { return len(n.anchors) }

// Deliver implements transport.Handler: the single entry point for all
// overlay traffic. msg is lent for the call — off a socket the struct is
// the connection decoder's and its bytes lie in the read buffer — so the
// two things that outlive the call are copies: an echo handed to
// RoundTripStream, and a parked message.
func (n *Node) Deliver(from transport.Addr, msg transport.Message) {
	switch m := msg.(type) {
	case *AnchorMsg:
		if !n.installAnchor(m.Anchor) {
			n.m.anchorRejects.Inc()
			n.logf("procnode %d: refusing a different anchor for held hop %s", n.Addr, m.Anchor.HopID.Short())
			return
		}
		n.m.anchorInstalls.Inc() // every acked install, so installs >= acks holds under retransmission
		n.ack = AnchorAck{HopID: m.Anchor.HopID}
		n.send(from, id.ID{}, &n.ack, 0) // sent or parked as a copy
	case *AnchorAck:
		n.m.anchorAcks.Inc()
		select {
		case n.acks <- m.HopID:
		default:
			n.m.notifyDrops.Inc()
			n.logf("procnode %d: ack channel full, dropping ack for %s", n.Addr, m.HopID.Short())
		}
	case *core.Envelope:
		n.handleForward(m)
	case *core.ReplyEnvelope:
		n.handleReply(m)
	case *DataMsg:
		if m.Dest == n.ID {
			n.handleExitPayload(m.Payload)
			return
		}
		// Exit hops address DataMsg directly; a mismatch means a stale
		// membership view somewhere.
		n.logf("procnode %d: data for foreign node %s", n.Addr, m.Dest.Short())
	default:
		n.logf("procnode %d: unexpected message %T", n.Addr, msg)
	}
}

// Membership lag tolerance: a node whose view of the membership is behind
// — the target joined after this node's last peer-table refresh — parks
// the message and retries on a Schedule callback instead of dropping it.
// This is what lets a freshly joined initiator receive its anchor acks and
// its first reply without eating a full initiator-side retransmit timeout.
const (
	resolveRetries = 25
	resolveDelay   = 200 * time.Millisecond
)

// send transmits msg to dst, the §5 hint, or — when there is none, dst ==
// NoAddr — to the member whose node ID is target, through the membership
// index; with an address in hand target goes unread. While the ID is
// unknown or the address has no dialable endpoint the message is parked
// and re-tried from the top, with the hint it came with: a failed lookup's
// Addr is the zero value, and 0 is somebody's address. A parked message
// outlives the frame it was decoded from and the struct that holds it — a
// decoder's or the handler's — so the first park keeps a copy and every
// retry re-parks that. After resolveRetries
// a still-unknown ID is dropped and counted; a known address is sent to
// anyway, so the transport's drop accounting sees it.
func (n *Node) send(dst transport.Addr, target id.ID, msg transport.Message, attempt int) {
	to, known := dst, true
	if dst == transport.NoAddr {
		to, known = n.lookupID(target)
	}
	switch {
	case known && (n.tr.Reachable(to) || attempt >= resolveRetries):
		n.tr.Send(n.Addr, to, msg)
	case attempt >= resolveRetries:
		n.m.resolveDrops.Inc()
		n.logf("procnode %d: cannot resolve node %s after %d attempts, dropping",
			n.Addr, target.Short(), attempt)
	default:
		if attempt == 0 { // the copy: msg decoded from an encoding of its own
			kind, enc, err := Codec{}.Encode(msg)
			if err == nil {
				msg, err = Codec{}.Decode(kind, enc)
			}
			if err != nil {
				n.logf("procnode %d: parking: %v", n.Addr, err)
				return
			}
		}
		n.m.parkRetries.Inc()
		n.tr.Schedule(resolveDelay, transport.Func(func() { n.send(dst, target, msg, attempt+1) }))
	}
}

// peelClock reads the clock for the peel histogram, and only for a node
// that has one: without a registry a node takes no timestamps, as it counts
// nothing (DESIGN §15), and Observe on the nil histogram is a no-op.
func (n *Node) peelClock() transport.Time {
	if n.m.peelSeconds == nil {
		return 0
	}
	return n.tr.Now()
}

// handleForward peels one forward layer and relays, or — at the exit —
// routes the payload to its destination node.
func (n *Node) handleForward(env *core.Envelope) {
	a, ok := n.peelAnchor(env.HopID)
	if !ok {
		n.logf("procnode %d: no anchor for hop %s", n.Addr, env.HopID.Short())
		return
	}
	// The envelope is ours for this call, so the hop step may rewrite it
	// where it lies: past a relay layer it is the inner message, addressed
	// and padded, and send copies it out before the call returns.
	t0 := n.peelClock()
	layer, err := env.Peel(a)
	if err != nil {
		n.logf("procnode %d: %v", n.Addr, err)
		return
	}
	n.m.peelsForward.Inc()
	n.m.peelSeconds.Observe((n.peelClock() - t0).Seconds())
	if layer.IsExit {
		if layer.Dest == n.ID {
			n.handleExitPayload(layer.Payload)
			return
		}
		// The payload lies in the envelope's bytes, lent for this call, and
		// the DataMsg is handler state: send encodes both into a frame, parks
		// a copy, or drops them. Then the DataMsg lets go of the frame.
		n.exit = DataMsg{Dest: layer.Dest, Payload: layer.Payload}
		n.send(transport.NoAddr, layer.Dest, &n.exit, 0)
		n.exit = DataMsg{}
		return
	}
	n.m.relaysForwarded.Inc()
	n.send(env.Hint, env.HopID, env, 0)
}

// handleReply peels one reply layer when this node anchors the target
// hop, or consumes the envelope when it is the initiator's own bid.
func (n *Node) handleReply(env *core.ReplyEnvelope) {
	a, ok := n.peelAnchor(env.Target)
	if !ok {
		if env.Target == n.ID {
			// The tail hop resolved our bid: the reply is home.
			n.m.repliesHome.Inc()
			// Read past this call, by RoundTripStream: copied, into a buffer
			// the stream is done with when there is one.
			var buf []byte
			select {
			case buf = <-n.replyFree:
			default:
			}
			select {
			case n.replies <- append(buf[:0], env.Data...):
			default:
				n.m.notifyDrops.Inc()
				n.logf("procnode %d: reply channel full", n.Addr)
			}
			return
		}
		n.logf("procnode %d: no anchor for reply hop %s", n.Addr, env.Target.Short())
		return
	}
	t0 := n.peelClock()
	if err := env.Peel(a); err != nil {
		n.logf("procnode %d: %v", n.Addr, err)
		return
	}
	n.m.peelsReply.Inc()
	n.m.peelSeconds.Observe((n.peelClock() - t0).Seconds())
	// The tail layer names the initiator's bid with no hint: send resolves
	// it through the membership index.
	n.send(env.Hint, env.Target, env, 0)
}

// Exit payload format (the plaintext the exit layer reveals, §4's
// {fid, K_I, T_r} extended with stream framing):
//
//	sid uint64, seq uint32, fin byte, key blob, replyTunnel blob, chunk blob
//
// key is the stream's K_I: one per RoundTripStream, the same in each of
// its requests, so the responder needs nothing but the request in hand.
//
// Echo payload, sealed under key with a fresh nonce per echo:
//
//	sid uint64, seq uint32, fin byte, chunk blob

// requestOverhead bounds what a request's framing adds to its reply tunnel
// and chunk: sid, seq, fin, the key blob and the two length prefixes.
const requestOverhead = 8 + 4 + 1 + (1 + crypt.KeySize) + 2*binary.MaxVarintLen32

// echoOverhead bounds what a sealed echo adds to its chunk: sid, seq, fin,
// the length prefix, and the seal's nonce and tag.
const echoOverhead = 8 + 4 + 1 + binary.MaxVarintLen32 + crypt.Overhead

// appendRequest appends one request's exit payload to dst.
func appendRequest(dst []byte, sid uint64, seq uint32, fin bool, key crypt.Key, rt, chunk []byte) []byte {
	w := wire.NewWriterOn(dst)
	w.Uint64(sid)
	w.Uint32(seq)
	if fin {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Blob(key[:])
	w.Blob(rt)
	w.Blob(chunk)
	return w.Bytes()
}

// echoSealerFor returns key's schedule from the responder's cache, which
// holds exactly one, by value: a stream's requests all carry one key, so
// from a stream's second chunk on nothing is derived. Any other key derives
// and replaces the entry — two interleaved streams thrash it and stay
// correct — so what a responder retains for all the initiators it ever
// serves is bounded at one schedule. The zero Sealer is the empty cache.
func (n *Node) echoSealerFor(key crypt.Key) *crypt.Sealer {
	if n.echoSealer == (crypt.Sealer{}) || subtle.ConstantTimeCompare(n.echoKey[:], key[:]) != 1 {
		n.echoKey, n.echoSealer = key, crypt.MakeSealer(key)
	}
	return &n.echoSealer
}

// handleExitPayload is the responder role: decode a stream request, seal
// the echo under the request's key, and launch it down the reply tunnel.
func (n *Node) handleExitPayload(payload []byte) {
	n.m.exitPayloads.Inc()
	r := wire.NewReader(payload)
	sid := r.Uint64()
	seq := r.Uint32()
	fin := r.Byte()
	var key crypt.Key
	r.FixedBlob(key[:])
	rtEnc := r.Blob()
	chunk := r.Blob()
	if err := r.Done(); err != nil {
		n.logf("procnode %d: bad exit payload: %v", n.Addr, err)
		return
	}
	rt, err := core.ParseReplyTunnel(rtEnc) // its onion lies in the request, lent for this call
	if err != nil {
		n.logf("procnode %d: %v", n.Addr, err)
		return
	}
	// The echo is written where its sealed form will lie, behind the
	// nonce's margin, and sealed there: in the responder's one echo buffer,
	// which the envelope carries to send.
	if need := echoOverhead + len(chunk); cap(n.echoBuf) < need {
		n.echoBuf = make([]byte, 0, need)
	}
	echo := wire.NewWriterOn(n.echoBuf[:crypt.NonceSize])
	echo.Uint64(sid)
	echo.Uint32(seq)
	echo.Byte(fin)
	echo.Blob(chunk)
	sealed := echo.Bytes()
	sealed = sealed[:len(sealed)+crypt.Overhead-crypt.NonceSize]
	if err := n.echoSealerFor(key).SealInPlace(sealed, rand.Reader); err != nil {
		n.logf("procnode %d: sealing echo: %v", n.Addr, err)
		return
	}
	n.echo = core.ReplyEnvelope{Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: sealed}
	n.send(rt.FirstHint, rt.First, &n.echo, 0)
	// Sent or parked as a copy: let go of the frame.
	n.echo, n.echoBuf = core.ReplyEnvelope{}, kept(n.echoBuf)
}

// kept is buf if it is within the retention bound a node keeps scratch
// to, tcptransport.MaxKeptBuffer, and nil if it grew past it.
func kept(buf []byte) []byte {
	if cap(buf) > tcptransport.MaxKeptBuffer {
		return nil
	}
	return buf
}
