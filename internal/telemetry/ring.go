package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// SpanKind names one instrumented phase of a round. The vocabulary is
// shared by the flight recorder and the frame aggregates so a span
// seen in a daemon's ring lines up with the fleet view the front end
// prints.
type SpanKind uint8

const (
	// SpanWalk is a daemon's stack-walk (sampling) phase for a round.
	SpanWalk SpanKind = iota
	// SpanSeal is sealing the walker trie the round's trees are built
	// from: folding its labels up and compressing them.
	SpanSeal
	// SpanEncode is wire-encoding the round's trees at a leaf.
	SpanEncode
	// SpanReduceWait is the time one child payload spent blocked at the
	// reduction's in-flight gate before its parent could take it — gate
	// admission time only, with neither payload production nor merge
	// work included (see tbon.ReduceOptions.WaitObserver).
	SpanReduceWait
	// SpanMerge is an interior filter's tree-merge (decode + fold +
	// re-encode) for one call.
	SpanMerge
	// SpanSend is minting and framing the outbound packet at a leaf.
	SpanSend
	// SpanFold is folding children's telemetry frames at an interior
	// node — the cost of the telemetry plane itself.
	SpanFold

	// NumSpanKinds bounds the per-kind aggregate arrays.
	NumSpanKinds = int(SpanFold) + 1
)

var spanNames = [NumSpanKinds]string{
	"walk", "seal", "encode", "reduce-wait", "merge", "send", "fold",
}

// String returns the span kind's stable lowercase name.
func (k SpanKind) String() string {
	if int(k) < NumSpanKinds {
		return spanNames[k]
	}
	return "unknown"
}

// Span is one flight-recorder event: a phase that started at Start
// (nanoseconds, same clock as the writer's time.Now) and ran for Dur
// nanoseconds during round Round. Seq is the global write sequence,
// so gaps in a snapshot reveal exactly how many events were lapped.
type Span struct {
	Seq   uint64
	Kind  SpanKind
	Round int32
	Start int64
	Dur   int64
}

// ringEntry is one slot. stamp is a per-entry seqlock: 0 means never
// written; odd means a write is in progress; even values encode
// (seq+1)<<1 of the entry's occupant. The writer transitions
// even→odd→writes fields→even; a snapshotter copies the fields and
// keeps them only if the stamp read before and after matches and is
// even. The payload fields are themselves atomics — the seqlock makes
// the copy consistent, the atomics make the concurrent access defined
// (and keep the race detector quiet about what is a deliberate
// overlap).
type ringEntry struct {
	stamp atomic.Uint64
	meta  atomic.Uint64 // kind in the low 8 bits, round<<8 above it
	start atomic.Int64
	dur   atomic.Int64
}

// Recorder is a flight recorder with one nominal writer (the owning
// daemon) and any number of concurrent snapshotters. Record never
// blocks, never allocates, and overwrites the oldest entry when the
// ring is full — a flight recorder keeps the tail, not the history.
// Sequence allocation is atomic, so a straggler writer (a timed-out
// fault-tolerant leaf goroutine racing the next round) lands in its
// own slot instead of corrupting the ring; its entry simply interleaves.
type Recorder struct {
	next atomic.Uint64 // next sequence to write
	wseq atomic.Uint64
	mask uint64
	ring []ringEntry
}

// NewRecorder returns a recorder holding the last size spans (rounded
// up to a power of two, minimum 8).
func NewRecorder(size int) *Recorder {
	if size < 8 {
		size = 8
	}
	n := 1 << bits.Len(uint(size-1))
	return &Recorder{mask: uint64(n - 1), ring: make([]ringEntry, n)}
}

// Record appends one span.
func (r *Recorder) Record(kind SpanKind, round int32, start, dur int64) {
	seq := r.next.Add(1) - 1
	e := &r.ring[seq&r.mask]
	// stamp encodes seq+1 so a zero stamp always means "never written"
	// even for the entry at sequence 0.
	e.stamp.Store((seq+1)<<1 | 1) // mark busy
	e.meta.Store(uint64(kind) | uint64(uint32(round))<<8)
	e.start.Store(start)
	e.dur.Store(dur)
	e.stamp.Store((seq + 1) << 1) // publish
	// Advance the published high-water mark monotonically: concurrent
	// stragglers may publish out of order, and wseq must never retreat.
	for {
		cur := r.wseq.Load()
		if seq+1 <= cur || r.wseq.CompareAndSwap(cur, seq+1) {
			return
		}
	}
}

// Written returns the total number of spans recorded so far.
func (r *Recorder) Written() uint64 { return r.wseq.Load() }

// Snapshot copies the most recent spans into dst (oldest first) and
// returns the filled prefix. Safe to call concurrently with Record;
// entries the writer overwrote mid-copy are skipped, so the result may
// have sequence gaps but never torn fields. dst caps the tail length.
func (r *Recorder) Snapshot(dst []Span) []Span {
	high := r.wseq.Load() // sequences [0, high) have been published
	n := uint64(len(r.ring))
	if high < n {
		n = high
	}
	if uint64(len(dst)) < n {
		n = uint64(len(dst))
	}
	out := dst[:0]
	for seq := high - n; seq < high; seq++ {
		e := &r.ring[seq&r.mask]
		want := (seq + 1) << 1
		s1 := e.stamp.Load()
		if s1 != want {
			continue // lapped or mid-write
		}
		meta := e.meta.Load()
		sp := Span{
			Seq:   seq,
			Kind:  SpanKind(meta & 0xff),
			Round: int32(uint32(meta >> 8)),
			Start: e.start.Load(),
			Dur:   e.dur.Load(),
		}
		if e.stamp.Load() != want {
			continue // overwritten while copying
		}
		out = append(out, sp)
	}
	return out
}
