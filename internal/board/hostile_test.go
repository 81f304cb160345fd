package board

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tap/internal/obs"
	"tap/internal/transport"
	"tap/internal/wire"
)

// TestDecodePeersHostileCount: the count is the first thing read off the
// socket. Before it was held to the bytes behind it, the four bytes
// ff ff ff ff sized a map for 2^32-1 entries and the process died of the
// runtime's unrecoverable out-of-memory.
func TestDecodePeersHostileCount(t *testing.T) {
	one := encodePeers(map[transport.Addr]string{7: "h:1"})
	claimTwo := append([]byte(nil), one...)
	binary.BigEndian.PutUint32(claimTwo, 2)
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"count only", []byte{0xff, 0xff, 0xff, 0xff}},
		{"count over one real entry", claimTwo},
		{"count over eight spare bytes", append([]byte{0, 0, 0, 1}, make([]byte, 8)...)},
	} {
		if peers, err := decodePeers(tc.in); err == nil {
			t.Errorf("%s: decoded %v, want an error", tc.name, peers)
		}
	}
	// Nothing is sized by a refused count: a million claimed entries cost
	// an error value, not a million-entry map.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decodePeers([]byte{0x00, 0x10, 0x00, 0x00})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("refusing a count of 1<<20 allocated %d bytes", got)
	}
	got, err := decodePeers(one)
	if err != nil || !reflect.DeepEqual(got, map[transport.Addr]string{7: "h:1"}) {
		t.Fatalf("valid list: %v, %v", got, err)
	}
}

// FuzzDecodePeers: no input panics or sizes memory off its count, and
// whatever decodes survives a round trip. Seeds: testdata/fuzz.
func FuzzDecodePeers(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		peers, err := decodePeers(b)
		if err != nil {
			return
		}
		if max := (len(b) - 4) / minPeerEntry; len(peers) > max {
			t.Fatalf("%d peers out of %d bytes", len(peers), len(b))
		}
		again, err := decodePeers(encodePeers(peers))
		if err != nil || !reflect.DeepEqual(again, peers) {
			t.Fatalf("round trip: %v, %v; want %v", again, err, peers)
		}
	})
}

// TestServeRefusesOnHeader: a request is a host:port or a uint32, and the
// connection is unauthenticated. A header that is malformed or claims more
// than maxRequest gets an error frame and a closed connection, is counted,
// and none of its payload is waited for — each case sends the eight header
// bytes and nothing else. Before the check, the 16 MiB claim made the
// board allocate 16 MiB and block on the read.
func TestServeRefusesOnHeader(t *testing.T) {
	b, addr := startBoard(t, Config{Registry: obs.NewRegistry()})
	header := func(n uint32) []byte {
		h := []byte{wire.FrameMagic0, wire.FrameMagic1, wire.FrameVersion, kindRegister, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(h[4:], n)
		return h
	}
	for i, tc := range []struct {
		name string
		hdr  []byte
	}{
		{"one over the request limit", header(maxRequest + 1)},
		{"the frame limit", header(wire.MaxFramePayload)},
		{"FuzzFrame/oversized-length", header(0xffffffff)},
		{"FuzzFrame/bad-magic", []byte("XX\x01\x01\x00\x00\x00\x00")},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(tc.hdr); err != nil {
			t.Fatal(err)
		}
		kind, msg, err := wire.ReadFrame(conn, nil)
		if err != nil || kind != kindError || !strings.Contains(string(msg), "refused") {
			t.Fatalf("%s: reply kind %d %q, err %v; want a kindError refusal", tc.name, kind, msg, err)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: connection left open after the refusal (read: %v)", tc.name, err)
		}
		conn.Close()
		if got := b.m.rejects.Load(); got != uint64(i+1) {
			t.Fatalf("%s: tap_board_rejects_total = %d, want %d", tc.name, got, i+1)
		}
	}

	// The limit itself is a valid request.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	hostport := string(bytes.Repeat([]byte{'h'}, maxRequest-2)) // 2-byte uvarint length
	a, peers, err := c.Register(hostport)
	if err != nil || peers[a] != hostport {
		t.Fatalf("register with a %d-byte request: %v", maxRequest, err)
	}
	if got := b.m.rejects.Load(); got != 4 {
		t.Fatalf("valid request counted as a reject: %d", got)
	}
}
