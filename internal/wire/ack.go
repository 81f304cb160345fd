package wire

import "fmt"

// AckVerSACK is the one ACK frame version: the windowed-streaming
// acknowledgment, a cumulative sequence number (every segment below it has
// been received) plus up to MaxAckRanges selective ranges of segments
// received above the cumulative point, so a sender retransmits exactly the
// gaps. Version 1 (the stop-and-wait acknowledgment) is retired and decodes
// as an unknown version.
const AckVerSACK byte = 2

// MaxAckRanges bounds the selective ranges one SACK frame carries. Gaps
// beyond the bound are simply not reported in this frame; the cumulative
// number still advances, so correctness never depends on range count.
const MaxAckRanges = 8

// AckRange is one contiguous run of received segments, [Start, End).
type AckRange struct {
	Start, End uint64
}

// AckFrame is a decoded acknowledgment.
type AckFrame struct {
	Ver  byte
	Flow uint64
	// Cum is the cumulative acknowledgment: all segments with
	// seq < Cum have been received.
	Cum uint64
	// Ranges are the selective runs above Cum. Decoding
	// appends into the slice passed to ReadAck, so a caller that supplies
	// capacity gets a zero-allocation decode.
	Ranges []AckRange
}

// AppendAckSACK encodes a version-2 acknowledgment. Ranges beyond
// MaxAckRanges are dropped (they must be sorted ascending; the nearest
// gaps matter most to the sender's retransmit decision).
func AppendAckSACK(w *Writer, flow uint64, cum uint64, ranges []AckRange) {
	if len(ranges) > MaxAckRanges {
		ranges = ranges[:MaxAckRanges]
	}
	w.Byte(AckVerSACK)
	w.Uint64(flow)
	w.Uint64(cum)
	w.Byte(byte(len(ranges)))
	for _, r := range ranges {
		w.Uint64(r.Start)
		w.Uint64(r.End)
	}
}

// ReadAck decodes an acknowledgment, appending selective ranges into the
// caller's slice.
func ReadAck(r *Reader, ranges []AckRange) (AckFrame, error) {
	var f AckFrame
	f.Ver = r.Byte()
	f.Flow = r.Uint64()
	if f.Ver != AckVerSACK {
		return f, fmt.Errorf("wire: unknown ack version %d", f.Ver)
	}
	f.Cum = r.Uint64()
	n := int(r.Byte())
	if n > MaxAckRanges {
		return f, fmt.Errorf("wire: ack carries %d ranges, max %d", n, MaxAckRanges)
	}
	for i := 0; i < n; i++ {
		start := r.Uint64()
		end := r.Uint64()
		if r.Err() != nil {
			break
		}
		if end <= start || start < f.Cum {
			return f, fmt.Errorf("wire: ack range [%d,%d) malformed against cum %d", start, end, f.Cum)
		}
		if len(ranges) > 0 && start < ranges[len(ranges)-1].End {
			return f, fmt.Errorf("wire: ack ranges out of order at [%d,%d)", start, end)
		}
		ranges = append(ranges, AckRange{Start: start, End: end})
	}
	f.Ranges = ranges
	if err := r.Err(); err != nil {
		return f, err
	}
	return f, nil
}

// AckSizeSACK is the encoded size of a version-2 acknowledgment carrying
// nranges selective ranges.
func AckSizeSACK(nranges int) int {
	if nranges > MaxAckRanges {
		nranges = MaxAckRanges
	}
	return 1 + 8 + 8 + 1 + 16*nranges
}

// --- stream segment framing -------------------------------------------------

// streamMagic prefixes a stream segment riding as an opaque tunnel
// payload, so a tunnel exit can tell windowed-stream traffic from plain
// one-shot payloads without any out-of-band signal.
var streamMagic = [4]byte{'T', 'S', 'G', 1}

// StreamSegmentOverhead is the framing cost of one segment: magic, stream
// id, sequence number, flags, ack-return address, and the data length
// prefix (worst-case uvarint for the sizes in play).
const StreamSegmentOverhead = 4 + 8 + 8 + 1 + 8 + 2

// AppendStreamSegment encodes one stream segment into w.
func AppendStreamSegment(w *Writer, stream, seq uint64, fin bool, ackTo int64, data []byte) {
	w.buf = append(w.buf, streamMagic[:]...)
	w.Uint64(stream)
	w.Uint64(seq)
	if fin {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Int64(ackTo)
	w.Blob(data)
}

// IsStreamSegment reports whether buf begins with the stream framing
// magic.
func IsStreamSegment(buf []byte) bool {
	return len(buf) >= len(streamMagic) && string(buf[:len(streamMagic)]) == string(streamMagic[:])
}

// ReadStreamSegment decodes a segment produced by AppendStreamSegment.
// The data slice aliases buf.
func ReadStreamSegment(buf []byte) (stream, seq uint64, fin bool, ackTo int64, data []byte, err error) {
	if !IsStreamSegment(buf) {
		err = fmt.Errorf("wire: not a stream segment")
		return
	}
	r := NewReader(buf[len(streamMagic):])
	stream = r.Uint64()
	seq = r.Uint64()
	fin = r.Byte() != 0
	ackTo = r.Int64()
	data = r.Blob()
	err = r.Err()
	return
}
