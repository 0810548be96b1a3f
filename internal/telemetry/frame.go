package telemetry

import "encoding/binary"

// SpanAgg is the foldable summary of one span kind: how many spans,
// their total duration, and the fleet-wide extremes. Min is only
// meaningful when Count > 0.
type SpanAgg struct {
	Count int64
	SumNs int64
	MinNs int64
	MaxNs int64
}

// Observe folds one span duration into the aggregate.
func (a *SpanAgg) Observe(ns int64) {
	if a.Count == 0 || ns < a.MinNs {
		a.MinNs = ns
	}
	if ns > a.MaxNs {
		a.MaxNs = ns
	}
	a.Count++
	a.SumNs += ns
}

// Merge folds another aggregate in.
func (a *SpanAgg) Merge(b *SpanAgg) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 || b.MinNs < a.MinNs {
		a.MinNs = b.MinNs
	}
	if b.MaxNs > a.MaxNs {
		a.MaxNs = b.MaxNs
	}
	a.Count += b.Count
	a.SumNs += b.SumNs
}

// Mean returns the average duration, or 0 when empty.
func (a *SpanAgg) Mean() int64 {
	if a.Count == 0 {
		return 0
	}
	return a.SumNs / a.Count
}

// FrameVersion is the wire version of the encoded frame. A decoder
// rejects frames it does not understand; because the telemetry section
// is negotiated alongside the tree wire version, every node in a
// session speaks the same frame version.
const FrameVersion = 1

// Frame is the fixed-size fleet aggregate piggybacked on result and
// delta packets. Leaves emit a frame covering their own round;
// interior filters fold children's frames plus their own merge/fold
// spans. All fields fold associatively, so the result is independent
// of TBON shape.
type Frame struct {
	// Daemons counts the leaf frames folded in — the telemetry
	// plane's own coverage, which a degraded round makes explicit.
	Daemons uint32
	// Filters counts interior filter calls folded in.
	Filters uint32
	// Round is the daemons' round (epoch) the frame describes.
	// Folded by max, so a torn fleet shows the newest epoch seen.
	Round int32

	// Spans aggregates per-kind durations across the fleet.
	Spans [NumSpanKinds]SpanAgg

	// PayloadBytes sums the leaf packet bodies emitted this round —
	// the paper's "what did the fan-in actually carry" number.
	PayloadBytes int64
	// MergedBytes sums interior filter output bodies this round.
	MergedBytes int64
	// LiveLeases is the max leased-buffer count observed at any node
	// during the round (a high-water memory proxy).
	LiveLeases int64
	// QueueDepth is the max number of inputs one filter call folded
	// (accumulator included). It reads a comm process's fan-in when the
	// reduction had room to fold whole child rows at once, and 2 when
	// every call folded [accumulator, child].
	QueueDepth int64

	// WalkHist is the fleet-wide histogram of leaf walk durations
	// (nanoseconds), merged bucket-wise up the tree. It is the
	// distribution behind Spans[SpanWalk]'s min/mean/max.
	WalkHist [HistBuckets]int64
}

// Observe folds one span duration into both the aggregate and, for
// walk spans, the distribution.
func (f *Frame) Observe(kind SpanKind, ns int64) {
	f.Spans[kind].Observe(ns)
	if kind == SpanWalk {
		f.WalkHist[bucketOf(ns)]++
	}
}

// Fold merges another frame into f. Associative and commutative, so
// interior nodes can fold children in arrival order.
func (f *Frame) Fold(g *Frame) {
	f.Daemons += g.Daemons
	f.Filters += g.Filters
	if g.Round > f.Round {
		f.Round = g.Round
	}
	for i := range f.Spans {
		f.Spans[i].Merge(&g.Spans[i])
	}
	f.PayloadBytes += g.PayloadBytes
	f.MergedBytes += g.MergedBytes
	if g.LiveLeases > f.LiveLeases {
		f.LiveLeases = g.LiveLeases
	}
	if g.QueueDepth > f.QueueDepth {
		f.QueueDepth = g.QueueDepth
	}
	for i := range f.WalkHist {
		f.WalkHist[i] += g.WalkHist[i]
	}
}

// EncodedFrameSize is the exact byte length of an encoded frame:
// version word, counts, round, the per-kind aggregates, the scalar
// counters, and the walk histogram, all little-endian fixed width.
const EncodedFrameSize = 4 + // version byte + 3 pad
	4 + 4 + 4 + // Daemons, Filters, Round
	NumSpanKinds*4*8 + // SpanAggs
	4*8 + // PayloadBytes, MergedBytes, LiveLeases, QueueDepth
	HistBuckets*8 // WalkHist

// AppendTo appends the encoded frame to dst and returns the extended
// slice. Allocation-free when dst has capacity.
func (f *Frame) AppendTo(dst []byte) []byte {
	n := len(dst)
	if cap(dst)-n < EncodedFrameSize {
		grown := make([]byte, n, n+EncodedFrameSize)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:n+EncodedFrameSize]
	b := dst[n:]
	b[0] = FrameVersion
	b[1], b[2], b[3] = 0, 0, 0
	le := binary.LittleEndian
	le.PutUint32(b[4:], f.Daemons)
	le.PutUint32(b[8:], f.Filters)
	le.PutUint32(b[12:], uint32(f.Round))
	off := 16
	for i := range f.Spans {
		a := &f.Spans[i]
		le.PutUint64(b[off:], uint64(a.Count))
		le.PutUint64(b[off+8:], uint64(a.SumNs))
		le.PutUint64(b[off+16:], uint64(a.MinNs))
		le.PutUint64(b[off+24:], uint64(a.MaxNs))
		off += 32
	}
	le.PutUint64(b[off:], uint64(f.PayloadBytes))
	le.PutUint64(b[off+8:], uint64(f.MergedBytes))
	le.PutUint64(b[off+16:], uint64(f.LiveLeases))
	le.PutUint64(b[off+24:], uint64(f.QueueDepth))
	off += 32
	for i := range f.WalkHist {
		le.PutUint64(b[off:], uint64(f.WalkHist[i]))
		off += 8
	}
	return dst
}

// FoldEncoded folds an encoded frame directly into *f — equivalent to
// DecodeFrameInto a scratch frame followed by Fold, but in a single
// pass over the bytes. This is the interior filter's per-child hot
// path: at fan-in k it replaces k decode-then-fold double passes with
// k single ones. Returns false (leaving *f unchanged) if b is not a
// well-formed frame of a version this build understands.
func FoldEncoded(f *Frame, b []byte) bool {
	if len(b) != EncodedFrameSize || b[0] != FrameVersion {
		return false
	}
	if b[1] != 0 || b[2] != 0 || b[3] != 0 {
		return false
	}
	le := binary.LittleEndian
	f.Daemons += le.Uint32(b[4:])
	f.Filters += le.Uint32(b[8:])
	if r := int32(le.Uint32(b[12:])); r > f.Round {
		f.Round = r
	}
	off := 16
	for i := range f.Spans {
		a := &f.Spans[i]
		if count := int64(le.Uint64(b[off:])); count != 0 {
			if mn := int64(le.Uint64(b[off+16:])); a.Count == 0 || mn < a.MinNs {
				a.MinNs = mn
			}
			if mx := int64(le.Uint64(b[off+24:])); mx > a.MaxNs {
				a.MaxNs = mx
			}
			a.Count += count
			a.SumNs += int64(le.Uint64(b[off+8:]))
		}
		off += 32
	}
	f.PayloadBytes += int64(le.Uint64(b[off:]))
	f.MergedBytes += int64(le.Uint64(b[off+8:]))
	if v := int64(le.Uint64(b[off+16:])); v > f.LiveLeases {
		f.LiveLeases = v
	}
	if v := int64(le.Uint64(b[off+24:])); v > f.QueueDepth {
		f.QueueDepth = v
	}
	off += 32
	for i := range f.WalkHist {
		f.WalkHist[i] += int64(le.Uint64(b[off:]))
		off += 8
	}
	return true
}

// DecodeFrameInto parses an encoded frame into *f, overwriting it.
// Allocation-free. Returns false if b is not a well-formed frame of a
// version this build understands.
func DecodeFrameInto(f *Frame, b []byte) bool {
	if len(b) != EncodedFrameSize || b[0] != FrameVersion {
		return false
	}
	if b[1] != 0 || b[2] != 0 || b[3] != 0 {
		return false
	}
	le := binary.LittleEndian
	f.Daemons = le.Uint32(b[4:])
	f.Filters = le.Uint32(b[8:])
	f.Round = int32(le.Uint32(b[12:]))
	off := 16
	for i := range f.Spans {
		a := &f.Spans[i]
		a.Count = int64(le.Uint64(b[off:]))
		a.SumNs = int64(le.Uint64(b[off+8:]))
		a.MinNs = int64(le.Uint64(b[off+16:]))
		a.MaxNs = int64(le.Uint64(b[off+24:]))
		off += 32
	}
	f.PayloadBytes = int64(le.Uint64(b[off:]))
	f.MergedBytes = int64(le.Uint64(b[off+8:]))
	f.LiveLeases = int64(le.Uint64(b[off+16:]))
	f.QueueDepth = int64(le.Uint64(b[off+24:]))
	off += 32
	for i := range f.WalkHist {
		f.WalkHist[i] = int64(le.Uint64(b[off:]))
		off += 8
	}
	return true
}
