package tha

import (
	"bytes"
	"testing"

	"tap/internal/id"
	"tap/internal/wire"
)

// FuzzReadAnchor feeds the shared anchor decoder — procnode's install frame
// and onionroute's instructions both read through it — arbitrary bytes: it
// must never panic, and a record it accepts whole must re-encode to exactly
// the bytes it came from (one wire form per anchor). The committed corpus is
// procnode's anchor entries: genuine, empty blobs, a key a byte long, a key
// cut short.
func FuzzReadAnchor(f *testing.F) {
	w := wire.NewWriter(WireSize + 2)
	AppendAnchor(w, Anchor{HopID: id.HashString("fuzz")})
	f.Add(w.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		a := ReadAnchor(r)
		if r.Done() != nil {
			return
		}
		out := wire.NewWriter(len(data))
		AppendAnchor(out, a)
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %x, re-encodes as %x", data, out.Bytes())
		}
	})
}
