package procnode

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"time"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/id"
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
	// Timeout bounds each network wait (anchor ack, chunk echo).
	// Default 5s.
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

func (c *StreamConfig) defaults() {
	if c.ChunkSize == 0 {
		c.ChunkSize = 512
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
}

// RoundTripStream runs the full paper flow as one initiator call: mint
// anchors, deploy them to the configured hop nodes (acknowledged, so no
// install-vs-traffic race), build the forward tunnel and the pre-peeled
// reply tunnel, then stream the payload through the overlay in
// onion-sealed chunks. Each chunk travels the forward tunnel to the
// responder, which seals its echo under the stream's key K_I — drawn once
// per call, carried in every request — and sends it back down the reply
// tunnel; the echoes, each verified against its chunk, are returned
// reassembled in order.
//
// Up to streamWindow chunks are in flight at once. Every chunk has its own
// deadline, cfg.Timeout after it was last sent; transport losses (a full
// send queue, a dropped connection) surface as a chunk outliving its
// deadline, and then that chunk alone is re-sent, up to streamRetries
// times, while the rest of the window keeps moving — selective repeat,
// mirroring the simulator's reliability layer in miniature.
//
// A node runs one stream at a time: acks and echoes arrive on per-node
// channels, where two streams would take each other's, so concurrent
// calls on one Node queue behind a mutex held for the whole call.
func (n *Node) RoundTripStream(cfg StreamConfig, payload []byte) ([]byte, error) {
	cfg.defaults()
	if len(cfg.ForwardHops) == 0 || len(cfg.ReplyHops) == 0 {
		return nil, fmt.Errorf("procnode: both tunnels need at least one hop")
	}
	n.streamMu.Lock()
	defer n.streamMu.Unlock()

	// The onion builders draw nonces and padding from a deterministic
	// stream; seed it from the OS entropy pool since nothing here needs
	// replay.
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("procnode: seeding: %w", err)
	}
	stream := rng.New(binary.BigEndian.Uint64(seed[:])).Split("procnode-stream")

	gen, err := tha.NewGenerator(n.ID[:], rand.Reader)
	if err != nil {
		return nil, err
	}
	mint := func(k int) ([]tha.Secret, error) {
		out := make([]tha.Secret, k)
		for i := range out {
			if out[i], err = gen.Generate(rand.Reader); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	fwSecrets, err := mint(len(cfg.ForwardHops))
	if err != nil {
		return nil, err
	}
	rpSecrets, err := mint(len(cfg.ReplyHops))
	if err != nil {
		return nil, err
	}

	// Deploy every anchor and wait for its holder's ack.
	deploy := func(hops []transport.Addr, secrets []tha.Secret) error {
		for i, hop := range hops {
			a := secrets[i].Anchor
			for attempt := 0; ; attempt++ {
				if attempt > 0 {
					n.m.streamRetransmits.Inc()
				}
				n.tr.Send(n.Addr, hop, &AnchorMsg{Anchor: a})
				if n.awaitAck(a.HopID, cfg.Timeout) {
					break
				}
				if attempt >= streamRetries {
					return fmt.Errorf("procnode: deploying anchor %s to node %d: no ack after %d attempts",
						a.HopID.Short(), hop, attempt+1)
				}
			}
		}
		return nil
	}
	if err := deploy(cfg.ForwardHops, fwSecrets); err != nil {
		return nil, err
	}
	if err := deploy(cfg.ReplyHops, rpSecrets); err != nil {
		return nil, err
	}

	fwTunnel := &core.Tunnel{Hops: fwSecrets}
	rpTunnel := &core.Tunnel{Hops: rpSecrets}
	rt, err := core.BuildReply(rpTunnel, cfg.ReplyHops, n.ID, stream)
	if err != nil {
		return nil, err
	}
	rtEnc := rt.Encode()
	destID := NodeID(cfg.Dest)

	var sidBuf [8]byte
	if _, err := rand.Read(sidBuf[:]); err != nil {
		return nil, err
	}
	sid := binary.BigEndian.Uint64(sidBuf[:])

	// One echo key for the stream, its schedule derived here once; the
	// responder derives it once more (handleExitPayload).
	key, err := crypt.NewKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	sealer := crypt.NewSealer(key)

	nChunks := (len(payload) + cfg.ChunkSize - 1) / cfg.ChunkSize
	if nChunks == 0 {
		nChunks = 1 // an empty payload still round-trips one fin chunk
	}
	chunkOf := func(seq int) []byte {
		lo := seq * cfg.ChunkSize
		return payload[lo:min(lo+cfg.ChunkSize, len(payload))]
	}

	// Chunks [base, next) are in flight, slot seq%streamWindow each; every
	// chunk below base is answered. The timer is armed for the earliest
	// deadline in the window and re-armed only when it fires: deadlines
	// only move later, so it can be early, never late.
	var window [streamWindow]inflight
	echoed := make([]byte, len(payload))
	base, next := 0, 0
	timer := time.NewTimer(cfg.Timeout)
	defer timer.Stop()
	for base < nChunks {
		for ; next < nChunks && next-base < streamWindow; next++ {
			req := encodeRequest(sid, uint32(next), next == nChunks-1, key, rtEnc, chunkOf(next))
			env, err := core.BuildForward(fwTunnel, cfg.ForwardHops, destID, req, stream)
			if err != nil {
				return nil, err
			}
			window[next%streamWindow] = inflight{env: env, deadline: time.Now().Add(cfg.Timeout)}
			n.tr.Send(n.Addr, cfg.ForwardHops[0], env)
		}
		select {
		case sealed := <-n.replies:
			// Not ours (a previous stream's straggler fails the key), or an
			// answer this window no longer waits for (the echo of a chunk
			// that was also re-sent): ignored.
			seq, echo, ok := openEcho(sealer, sid, sealed)
			if !ok || seq < base || seq >= next || window[seq%streamWindow].done {
				continue
			}
			chunk := chunkOf(seq)
			if !bytes.Equal(echo, chunk) {
				return nil, fmt.Errorf("procnode: chunk %d echo mismatch (%d vs %d bytes)", seq, len(echo), len(chunk))
			}
			copy(echoed[seq*cfg.ChunkSize:], echo)
			window[seq%streamWindow].done = true
			n.m.streamChunks.Inc()
			for base < next && window[base%streamWindow].done {
				base++
			}
		case <-timer.C:
			now := time.Now()
			wake := now.Add(cfg.Timeout)
			for seq := base; seq < next; seq++ {
				c := &window[seq%streamWindow]
				if c.done {
					continue
				}
				if !c.deadline.After(now) {
					if c.attempts >= streamRetries {
						return nil, fmt.Errorf("procnode: chunk %d/%d lost after %d attempts", seq+1, nChunks, c.attempts+1)
					}
					c.attempts++
					c.deadline = now.Add(cfg.Timeout)
					n.m.streamRetransmits.Inc()
					n.tr.Send(n.Addr, cfg.ForwardHops[0], c.env)
				}
				if c.deadline.Before(wake) {
					wake = c.deadline
				}
			}
			timer.Reset(wake.Sub(now))
		}
	}
	return echoed, nil
}

// inflight is one chunk of the window.
type inflight struct {
	env      *core.Envelope // built once; a re-send is the same envelope
	deadline time.Time      // when this chunk, and only it, is re-sent
	attempts int            // re-sends so far
	done     bool           // echo received and verified
}

// openEcho authenticates a delivered reply under the stream's key, in
// place — the codec made the bytes ours — and returns the chunk number it
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

// awaitAck waits for an anchor ack with the given hop id, discarding
// stale acks from earlier retries.
func (n *Node) awaitAck(hopID id.ID, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case got := <-n.acks:
			if got == hopID {
				return true
			}
		case <-deadline.C:
			return false
		}
	}
}
