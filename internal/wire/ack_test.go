package wire

import (
	"bytes"
	"testing"
)

func TestAckSACKRoundTrip(t *testing.T) {
	ranges := []AckRange{{Start: 12, End: 14}, {Start: 17, End: 18}, {Start: 20, End: 25}}
	w := NewWriter(64)
	AppendAckSACK(w, 9, 10, ranges)
	if got := w.Len(); got != AckSizeSACK(len(ranges)) {
		t.Fatalf("encoded size %d, AckSizeSACK %d", got, AckSizeSACK(len(ranges)))
	}
	var scratch [MaxAckRanges]AckRange
	r := NewReader(w.Bytes())
	f, err := ReadAck(r, scratch[:0])
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if f.Ver != AckVerSACK || f.Flow != 9 || f.Cum != 10 {
		t.Fatalf("header mismatch: %+v", f)
	}
	if len(f.Ranges) != len(ranges) {
		t.Fatalf("got %d ranges, want %d", len(f.Ranges), len(ranges))
	}
	for i, r := range ranges {
		if f.Ranges[i] != r {
			t.Fatalf("range %d: got %+v want %+v", i, f.Ranges[i], r)
		}
	}
}

func TestAckSACKEmptyRanges(t *testing.T) {
	w := NewWriter(32)
	AppendAckSACK(w, 1, 100, nil)
	f, err := ReadAck(NewReader(w.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Cum != 100 || len(f.Ranges) != 0 {
		t.Fatalf("mismatch: %+v", f)
	}
}

func TestAckSACKTruncatesRanges(t *testing.T) {
	ranges := make([]AckRange, MaxAckRanges+5)
	for i := range ranges {
		ranges[i] = AckRange{Start: uint64(10 + 2*i), End: uint64(11 + 2*i)}
	}
	w := NewWriter(256)
	AppendAckSACK(w, 1, 3, ranges)
	f, err := ReadAck(NewReader(w.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Ranges) != MaxAckRanges {
		t.Fatalf("got %d ranges, want cap %d", len(f.Ranges), MaxAckRanges)
	}
}

func TestAckRejectsMalformed(t *testing.T) {
	cases := map[string]func(w *Writer){
		"unknown version": func(w *Writer) {
			w.Byte(99)
			w.Uint64(1)
		},
		// A well-formed frame of the retired version 1 (flow id, hop count).
		"retired version 1": func(w *Writer) {
			w.Byte(0x01)
			w.Uint64(42)
			w.Uint32(7)
		},
		"inverted range": func(w *Writer) {
			w.Byte(AckVerSACK)
			w.Uint64(1)
			w.Uint64(5)
			w.Byte(1)
			w.Uint64(9)
			w.Uint64(8)
		},
		"range below cum": func(w *Writer) {
			w.Byte(AckVerSACK)
			w.Uint64(1)
			w.Uint64(5)
			w.Byte(1)
			w.Uint64(2)
			w.Uint64(4)
		},
		"out of order ranges": func(w *Writer) {
			w.Byte(AckVerSACK)
			w.Uint64(1)
			w.Uint64(0)
			w.Byte(2)
			w.Uint64(10)
			w.Uint64(12)
			w.Uint64(5)
			w.Uint64(7)
		},
		"truncated": func(w *Writer) {
			w.Byte(AckVerSACK)
			w.Uint64(1)
		},
	}
	for name, build := range cases {
		w := NewWriter(64)
		build(w)
		if _, err := ReadAck(NewReader(w.Bytes()), nil); err == nil {
			t.Errorf("%s: decode accepted malformed frame", name)
		}
	}
}

func TestAckDecodeNoAlloc(t *testing.T) {
	w := NewWriter(64)
	AppendAckSACK(w, 77, 30, []AckRange{{Start: 33, End: 35}, {Start: 40, End: 41}})
	buf := w.Bytes()
	var scratch [MaxAckRanges]AckRange
	allocs := testing.AllocsPerRun(200, func() {
		r := Reader{buf: buf}
		if _, err := ReadAck(&r, scratch[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ack decode allocates %v/op", allocs)
	}
}

func TestStreamSegmentRoundTrip(t *testing.T) {
	data := []byte("hello, window")
	w := NewWriter(64)
	AppendStreamSegment(w, 5, 12, true, 314, data)
	if !IsStreamSegment(w.Bytes()) {
		t.Fatal("framing magic not detected")
	}
	stream, seq, fin, ackTo, got, err := ReadStreamSegment(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if stream != 5 || seq != 12 || !fin || ackTo != 314 || !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: stream=%d seq=%d fin=%v ackTo=%d data=%q", stream, seq, fin, ackTo, got)
	}
	if IsStreamSegment(data) {
		t.Fatal("plain payload misdetected as stream segment")
	}
	if _, _, _, _, _, err := ReadStreamSegment([]byte("TSG")); err == nil {
		t.Fatal("short buffer accepted")
	}
}
