package tcptransport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tap/internal/transport"
)

// lentMsg is what lendCodec's decoders lend: one struct per decoder, which
// every decode rewrites, its body a window into the decoder's input.
type lentMsg struct {
	sender byte
	seq    uint32
	body   []byte
}

func (m *lentMsg) SizeBytes() int { return 5 + len(m.body) }

// lendCodec decodes the way the Decoder contract lets a codec: into one
// message per decoder, lending the frame's bytes.
type lendCodec struct{}

func (lendCodec) AppendEncode(dst []byte, msg transport.Message) (byte, []byte, error) {
	m := msg.(*lentMsg)
	dst = binary.BigEndian.AppendUint32(append(dst, m.sender), m.seq)
	return 1, append(dst, m.body...), nil
}

func (lendCodec) NewDecoder() Decoder { return new(lendDecoder) }

type lendDecoder struct{ msg lentMsg }

func (d *lendDecoder) Decode(kind byte, payload []byte) (transport.Message, error) {
	if kind != 1 || len(payload) < 5 {
		return nil, fmt.Errorf("kind %d, %d bytes: not a lentMsg", kind, len(payload))
	}
	d.msg = lentMsg{sender: payload[0], seq: binary.BigEndian.Uint32(payload[1:5]), body: payload[5:]}
	return &d.msg, nil
}

// lentBody is the body of sender's seq-th message. Its length and its bytes
// both vary, so neither another message's struct nor another frame's bytes
// pass for it.
func lentBody(sender byte, seq uint32) []byte {
	b := make([]byte, 16+int(seq%200))
	for i := range b {
		b[i] = sender ^ byte(seq) ^ byte(i*7)
	}
	return b
}

// TestConnectionDecodersLend: four connections interleave frames to one
// handler, each connection's reader decoding into the one struct its own
// decoder reuses. The handler checks its message — struct and bytes — on
// entry, yields while the other readers decode their next frames, and
// checks it again before it returns. A decoder shared between connections,
// or a connection decoding its next frame while its last is still being
// delivered, changes a message under its handler: a failed check, and a
// data race under -race.
func TestConnectionDecodersLend(t *testing.T) {
	const senders, rounds = 4, 200 // rounds stays under sendQueueDepth: nothing drops
	rx := New(Config{Codec: lendCodec{}})
	t.Cleanup(rx.Close)
	host, err := rx.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		next  [senders]uint32 // per sender, the message due next: one connection keeps its order
		count int
		done  = make(chan struct{})
	)
	rx.Attach(1, transport.HandlerFunc(func(from transport.Addr, msg transport.Message) {
		m := msg.(*lentMsg)
		s, seq := m.sender, m.seq
		if int(s) >= senders || from != transport.Addr(10+int(s)) || seq != next[s] {
			t.Errorf("message from %d claims sender %d, message %d", from, s, seq)
			return
		}
		want := lentBody(s, seq)
		intact := func() bool { return m.sender == s && m.seq == seq && bytes.Equal(m.body, want) }
		if !intact() {
			t.Errorf("sender %d message %d arrived damaged", s, seq)
		}
		for i := 0; i < 3; i++ {
			runtime.Gosched()
		}
		if !intact() {
			t.Errorf("sender %d message %d changed while its handler ran", s, seq)
		}
		next[s]++
		if count++; count == senders*rounds {
			close(done)
		}
	}))
	txs := make([]*Transport, senders)
	for i := range txs {
		txs[i] = New(Config{Codec: lendCodec{}})
		t.Cleanup(txs[i].Close)
		txs[i].SetPeer(1, host)
	}
	for r := uint32(0); r < rounds; r++ {
		for i, tx := range txs {
			tx.Send(transport.Addr(10+i), 1, &lentMsg{sender: byte(i), seq: r, body: lentBody(byte(i), r)})
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %d deliveries", senders*rounds)
	}
	if got := rx.m.connOpensIn.Load(); got != senders {
		t.Errorf("%d inbound connections, want %d", got, senders)
	}
}
