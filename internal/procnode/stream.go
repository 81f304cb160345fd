package procnode

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	randv2 "math/rand/v2"
	"time"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/rng"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/wire"
)

// StreamConfig shapes one RoundTripStream exchange.
type StreamConfig struct {
	// ForwardHops and ReplyHops name the nodes that will host the
	// tunnels' anchors, in hop order. Both must be non-empty.
	ForwardHops []transport.Addr
	ReplyHops   []transport.Addr
	// Dest is the responder node.
	Dest transport.Addr
	// ChunkSize splits the payload into stream chunks. Default 512.
	ChunkSize int
	// Timeout is the initial and minimum retransmit timeout of the
	// stream's window, which RTT samples and backoff lengthen up to the
	// window's 30 s cap (core's streamMaxRTO). Default 5s.
	Timeout time.Duration
}

const (
	// streamRetries is how many times a lost anchor deploy or chunk is
	// retransmitted before the stream fails.
	streamRetries = 3
	// streamWindow is how many chunks a stream keeps in flight: the window
	// the simulator's streams run (bench sim_stream). A constant because
	// there is nothing to tune — over loopback, windows of 4, 8, 16 and 32
	// measured 714, 684, 819 and 785 ops/s on tcp_small, flat from 4 up;
	// what the window buys is frames that share a queue, which one write
	// then carries (tcptransport's writeLoop).
	streamWindow = 16
)

// validate fills the defaults in and refuses what no stream can run with.
func (c *StreamConfig) validate() error {
	if len(c.ForwardHops) == 0 || len(c.ReplyHops) == 0 {
		return fmt.Errorf("procnode: both tunnels need at least one hop")
	}
	if c.ChunkSize < 0 || c.Timeout < 0 {
		return fmt.Errorf("procnode: chunk size %d and timeout %v must not be below 0 (0 takes the default)", c.ChunkSize, c.Timeout)
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 512
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	return nil
}

// frameSlack bounds what framing adds to an envelope's SizeBytes: the
// transport's address prefix and the codec's hint, pad and length fields.
const frameSlack = 64

// RoundTripStream runs the full paper flow as one initiator call: mint
// anchors, deploy them to the configured hop nodes, build the forward
// tunnel and the pre-peeled reply tunnel, then stream the payload through
// the overlay in onion-sealed chunks. Each chunk travels the forward tunnel
// to the responder, which seals its echo under the stream's key K_I — drawn
// once per call, carried in every request — and sends it back down the
// reply tunnel; the echoes, each verified against its chunk, are returned
// reassembled in order.
//
// The call is one sequence of requests over one core.SendWindow, the
// window the simulator's streams run. Requests 0..k−1 are the anchor
// installs, each addressed to its own hop node and answered by that node's
// AnchorAck — nothing orders one hop's anchor after another's, so they are
// all in flight together; the rest are the chunks, each answered by its
// echo, and held back until every install is acked, so no layer reaches a
// hop ahead of its anchor. Up to streamWindow requests are in flight at
// once, and each answer acknowledges its own request alone. Transport
// losses (a full send queue, a dropped connection) surface as the window's
// head going unanswered for an RTO — cfg.Timeout at least, adapted to the
// answers' round trips — and then the head alone is re-sent, the RTO
// doubling on each expiry, up to streamRetries times; two losses in one
// window recover one RTO apart.
//
// A node runs one stream at a time: acks and echoes arrive on per-node
// channels, where two streams would take each other's, so concurrent
// calls on one Node queue behind a mutex held for the whole call.
func (n *Node) RoundTripStream(cfg StreamConfig, payload []byte) ([]byte, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n.streamMu.Lock()
	defer n.streamMu.Unlock()
	in := &n.initiator
	defer func() { // a stream of huge chunks does not pin their size
		n.req = kept(n.req)
		for i := range in.slots {
			in.slots[i].env.Sealed = kept(in.slots[i].env.Sealed)
		}
	}()

	// The onion builders draw nonces and padding from the node's one nonce
	// stream, seeded from the OS entropy pool on the first call; anchors come
	// from the node's one §3.3 generator, whose counter t advances from call
	// to call. The first call makes the window's timer too, stopped.
	if n.gen == nil {
		var seed [32]byte
		if _, err := rand.Read(seed[:]); err != nil {
			return nil, fmt.Errorf("procnode: seeding: %w", err)
		}
		gen, err := tha.NewGenerator(n.ID[:], rand.Reader)
		if err != nil {
			return nil, err
		}
		n.nonces, n.gen = newNonces(seed), gen
		in.n, in.timer = n, time.NewTimer(time.Hour)
		in.timer.Stop()
	}
	defer in.timer.Stop()
	stream := n.nonces
	// One anchor per hop, the forward tunnel's then the reply tunnel's, in
	// the storage the last call's left, like the reply tunnel and its
	// encoding.
	in.hops = append(append(in.hops[:0], cfg.ForwardHops...), cfg.ReplyHops...)
	in.secrets = in.secrets[:0]
	for range in.hops {
		sec, err := n.gen.Generate(rand.Reader)
		if err != nil {
			return nil, err
		}
		in.secrets = append(in.secrets, sec)
	}
	fwTunnel := &core.Tunnel{Hops: in.secrets[:len(cfg.ForwardHops)]}
	rpTunnel := &core.Tunnel{Hops: in.secrets[len(cfg.ForwardHops):]}
	if err := core.BuildReplyInto(&in.rt, in.rt.Onion, rpTunnel, cfg.ReplyHops, n.ID, stream); err != nil {
		return nil, err
	}
	in.rtEnc = in.rt.AppendEncode(in.rtEnc[:0])
	destID := NodeID(cfg.Dest)

	var sidBuf [8]byte
	if _, err := rand.Read(sidBuf[:]); err != nil {
		return nil, err
	}
	sid := binary.BigEndian.Uint64(sidBuf[:])

	// One echo key for the stream, its schedule derived here once; the
	// responder derives it once more (handleExitPayload).
	var key crypt.Key
	if _, err := rand.Read(key[:]); err != nil {
		return nil, fmt.Errorf("procnode: drawing the echo key: %w", err)
	}
	sealer := crypt.MakeSealer(key)

	nChunks := (len(payload) + cfg.ChunkSize - 1) / cfg.ChunkSize
	if nChunks == 0 {
		nChunks = 1 // an empty payload still round-trips one fin chunk
	}
	chunkOf := func(seq int) []byte {
		lo := seq * cfg.ChunkSize
		return payload[lo:min(lo+cfg.ChunkSize, len(payload))]
	}
	// Every request is encoded into the node's one request buffer, sized
	// for the first chunk, and no chunk is longer; BuildForwardInto only
	// reads it, sealing it into the envelope of the request's window slot.
	// Both are kept from call to call.
	if need := requestOverhead + len(in.rtEnc) + len(chunkOf(0)); cap(n.req) < need {
		n.req = make([]byte, 0, need)
	}
	build := func(env *core.Envelope, seq int) error {
		n.req = appendRequest(n.req[:0], sid, uint32(seq), seq == nChunks-1, key, in.rtEnc, chunkOf(seq))
		return core.BuildForwardInto(env, fwTunnel, cfg.ForwardHops, destID, n.req, stream)
	}
	installs := len(in.secrets)
	total := installs + nChunks
	// Build the first chunk's envelope, in its slot, before anything is
	// sent: an envelope too large for a frame is dropped by the transport,
	// and would otherwise surface only as a chunk lost streamRetries+1 times.
	first := &in.slots[installs%streamWindow].env
	if err := build(first, 0); err != nil {
		return nil, err
	}
	if size := first.SizeBytes() + frameSlack; size > wire.MaxFramePayload {
		return nil, fmt.Errorf("procnode: a %d-byte chunk makes a %d-byte frame, over the %d-byte frame limit (wire.MaxFramePayload)",
			len(chunkOf(0)), size, wire.MaxFramePayload)
	}

	echoed := make([]byte, len(payload))
	in.tries = 0
	w := &in.win
	w.Reset(in, in, streamWindow, cfg.Timeout, cfg.Timeout, streamRetries)
	for next := 0; w.Acked() < uint64(total); {
		// The barrier: chunks wait until every install is answered.
		for ; next < total && w.HasRoom() && (next < installs || w.Acked() >= uint64(installs)); next++ {
			// The window numbers requests as next does. The slot's last
			// request is answered, and Send encoded it before returning:
			// nothing reads the slot's messages any more, so they are
			// rebuilt in place.
			seq := w.Claim()
			c := &in.slots[seq%streamWindow]
			if next < installs {
				c.dst, c.anchor = in.hops[next], AnchorMsg{Anchor: in.secrets[next].Anchor}
				c.msg = &c.anchor
			} else {
				if next > installs { // the first chunk's is built
					if err := build(&c.env, next-installs); err != nil {
						return nil, err
					}
				}
				c.dst, c.msg = cfg.ForwardHops[0], &c.env
			}
			w.Transmit(seq)
		}
		select {
		case hop := <-n.acks:
			// An ack this window does not wait for — an earlier call's, or a
			// re-sent install's second — answers nothing.
			for i := range in.secrets {
				if in.secrets[i].HopID == hop {
					w.Answer(uint64(i))
					break
				}
			}
		case sealed := <-n.replies:
			// Not ours (a previous stream's straggler fails the key), or an
			// answer this window no longer waits for (the echo of a chunk
			// that was also re-sent): ignored. Either way the buffer goes
			// back for handleReply to copy a later reply into.
			if seq, echo, ok := openEcho(&sealer, sid, sealed); ok && w.Answer(uint64(installs+seq)) {
				chunk := chunkOf(seq)
				if !bytes.Equal(echo, chunk) {
					return nil, fmt.Errorf("procnode: chunk %d echo mismatch (%d vs %d bytes)", seq, len(echo), len(chunk))
				}
				copy(echoed[seq*cfg.ChunkSize:], echo)
				n.m.streamChunks.Inc()
			}
			select {
			case n.replyFree <- kept(sealed):
			default:
			}
		case <-in.timer.C:
			// Under go.mod's go 1.22 the channel may keep a stale tick past
			// a Reset: it fires the window's event early, and the window
			// re-arms for its deadline.
			if in.fire.Fire(); in.tries > 0 {
				if i := int(in.lost); i < installs {
					return nil, fmt.Errorf("procnode: deploying anchor %s to node %d: no ack after %d attempts",
						in.secrets[i].HopID.Short(), in.hops[i], in.tries)
				}
				return nil, fmt.Errorf("procnode: chunk %d/%d lost after %d attempts", int(in.lost)-installs+1, nChunks, in.tries)
			}
		}
	}
	return echoed, nil
}

// initiator is the owner and the clock of the send window a node's
// RoundTripStream calls drive: the transport's time, and one timer the
// calling goroutine waits on. It is kept from call to call, and so is
// what each call builds its tunnels in.
type initiator struct {
	n     *Node
	win   core.SendWindow
	slots [streamWindow]inflight // request seq's messages in slot seq%streamWindow, as in the window's ring
	timer *time.Timer
	fire  transport.Event // what the window last scheduled
	lost  uint64          // the request that exhausted the retry budget after tries sends
	tries int             // 0 while none has

	hops    []transport.Addr // the call's hop nodes, the forward tunnel's then the reply tunnel's
	secrets []tha.Secret     // their anchors, minted by the call
	rt      core.ReplyTunnel // the reply tunnel, its onion sealed over the last call's
	rtEnc   []byte           // its encoding, which every request carries
}

// inflight is one slot of the window: its request — an anchor install or
// a chunk — and the messages the slot owns, rebuilt in place for each
// request it holds.
type inflight struct {
	dst    transport.Addr
	msg    transport.Message // &anchor or &env, built once; a re-send is the same message
	anchor AnchorMsg
	env    core.Envelope // a chunk's onion, sealed into the storage the slot's last chunk left
}

func (in *initiator) Now() transport.Time { return in.n.tr.Now() }

// Schedule re-arms the one timer. The window keeps one deadline and
// re-arms an event that fires early, so a pending event it replaces is
// not missed.
func (in *initiator) Schedule(delay transport.Time, ev transport.Event) {
	in.fire = ev
	in.timer.Reset(delay)
}

// Send puts request seq on the wire, the same message each time.
func (in *initiator) Send(seq uint64, rtx int) {
	if rtx > 0 {
		in.n.m.streamRetransmits.Inc()
	}
	c := &in.slots[seq%streamWindow]
	in.n.tr.Send(in.n.Addr, c.dst, c.msg)
}

func (in *initiator) GiveUp(seq uint64, tries int) { in.lost, in.tries = seq, tries }

// Backoff has nothing to do: a stream keeps no backoff past its call.
func (*initiator) Backoff(transport.Time, int) {}

// newNonces returns a node's nonce stream: an rng.Stream whose source is
// math/rand/v2's ChaCha8, a cryptographically strong generator, keyed by
// seed. rng.New's source has about 2^31 states, so one seed recovered from
// the nonces a hop sees would predict every later draw of the node; ChaCha8's
// 256-bit key leaves no seed to search. The stream's own seed stays unset:
// it is never split.
func newNonces(seed [32]byte) *rng.Stream {
	return &rng.Stream{Rand: mrand.New(chachaSource{randv2.NewChaCha8(seed)})}
}

// chachaSource is ChaCha8 as the math/rand Source an rng.Stream wraps.
type chachaSource struct{ *randv2.ChaCha8 }

func (s chachaSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed is never called: math/rand.New takes the source as it is.
func (chachaSource) Seed(int64) { panic("procnode: a nonce stream is not reseeded") }

// openEcho authenticates a delivered reply under the stream's key, in
// place — handleReply sent a copy — and returns the chunk number it
// answers and the echoed bytes, a window into sealed.
func openEcho(s *crypt.Sealer, sid uint64, sealed []byte) (seq int, chunk []byte, ok bool) {
	plain, err := s.OpenInPlace(sealed)
	if err != nil {
		return 0, nil, false
	}
	r := wire.NewReader(plain)
	gotSid := r.Uint64()
	gotSeq := r.Uint32()
	_ = r.Byte() // fin echo
	chunk = r.Blob()
	if r.Done() != nil || gotSid != sid {
		return 0, nil, false
	}
	return int(gotSeq), chunk, true
}
