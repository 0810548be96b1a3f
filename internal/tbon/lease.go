package tbon

import (
	"sync"
	"sync/atomic"
)

// Lease is a refcounted payload buffer: the unit of payload ownership
// everywhere the overlay moves bytes. The network hands filters leased
// packet buffers instead of throwaway []byte, which is what lets a
// zero-copy decoder keep viewing a wire buffer after the filter returns —
// the decoder retains the lease and the buffer stays alive (and stays
// charged against the engine's in-flight bound) until the last
// reference is released.
//
// Rules:
//
//   - NewLease returns the buffer with one reference, owned by the caller.
//   - Retain adds a reference; every Retain needs exactly one Release.
//   - When the count reaches zero the buffer is recycled (its free hook
//     runs) and the bytes must never be touched again.
//   - Bytes is valid only while the caller holds a reference; callers that
//     keep payload bytes beyond a filter call must Retain first.
//
// Releasing more times than retained, or using a lease after its last
// release, panics with a diagnostic rather than silently corrupting the
// refcount or recycling a live buffer. (The structs themselves are pooled,
// so a stale handle that survives into a later reduction is beyond the
// guard's reach — the panic catches the common bug, not every bug.)
//
// The refcount is atomic: leases may be retained and released from
// concurrent filter workers. The bytes themselves follow the package's
// payload discipline — producers write before sharing, consumers only
// read.
type Lease struct {
	b    []byte
	refs atomic.Int32
	// free, when non-nil, runs once with the buffer when the count hits
	// zero — leaves and filters use it to recycle pooled buffers.
	// Must be a plain func value (package-level function or a long-lived
	// closure); it is invoked exactly once.
	free func([]byte)
	// gate, when non-nil, is the engine's in-flight charge on
	// this payload, refunded (gateSize bytes) when the count hits zero.
	// Plain fields rather than a chained hook so the per-payload
	// accounting costs no closure allocations. Rank consumption is the
	// engine's business (it happens at fold time, not at buffer death) —
	// the lease only carries bytes.
	gate     *byteGate
	gateSize int64
}

// leasePoison marks a released lease so late Retain/Release/Bytes calls
// panic instead of resurrecting it. Far from zero so misuse cannot count
// back into valid territory.
const leasePoison = -1 << 24

var leasePool = sync.Pool{New: func() any { return new(Lease) }}

// liveLeases counts leases minted but not yet fully released, across the
// whole process. It exists for leak detection: every engine error path
// must sweep stranded payloads, and the fault-injection tests assert the
// counter returns to its baseline after induced failures.
var liveLeases atomic.Int64

// LiveLeases reports the number of leases currently alive process-wide.
// A reduction that has returned — successfully or not — must leave this
// where it found it, modulo leases the caller itself still holds.
func LiveLeases() int64 { return liveLeases.Load() }

// NewLease wraps b in a lease with one reference, owned by the caller.
// free, if non-nil, is called exactly once with b when the last reference
// is released — the hook for returning pooled buffers.
func NewLease(b []byte, free func([]byte)) *Lease {
	l := leasePool.Get().(*Lease)
	l.b = b
	l.free = free
	l.gate = nil
	l.refs.Store(1)
	liveLeases.Add(1)
	return l
}

// Bytes returns the leased buffer. The view is valid only while the
// caller holds a reference.
func (l *Lease) Bytes() []byte {
	if l.refs.Load() <= 0 {
		panic("tbon: Lease.Bytes after release")
	}
	return l.b
}

// Len reports the payload size in bytes.
func (l *Lease) Len() int {
	if l.refs.Load() <= 0 {
		panic("tbon: Lease.Len after release")
	}
	return len(l.b)
}

// Retain adds a reference. The caller must already hold one.
func (l *Lease) Retain() {
	if l.refs.Add(1) <= 1 {
		panic("tbon: Lease.Retain after release")
	}
}

// Release drops one reference; the last release recycles the buffer.
func (l *Lease) Release() {
	n := l.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("tbon: Lease double release (or use after release)")
	}
	b, free := l.b, l.free
	gate, gateSize := l.gate, l.gateSize
	l.b, l.free, l.gate = nil, nil, nil
	l.refs.Store(leasePoison)
	leasePool.Put(l)
	liveLeases.Add(-1)
	if gate != nil {
		gate.refund(gateSize)
	}
	if free != nil {
		free(b)
	}
}

// retire transfers the buffer to the reduction's caller permanently: the
// bytes stay valid indefinitely, no free hook runs, and the lease leaves
// the live count so LiveLeases sees a completed reduction as balanced.
// Engine-internal, called exactly once on the root result lease — the
// engine holds the sole reference by contract, so no other goroutine can
// touch the lease. Any budget charge is refunded.
func (l *Lease) retire() {
	if l.gate != nil {
		l.gate.refund(l.gateSize)
		l.gate = nil
	}
	liveLeases.Add(-1)
}

// chargeGate records a byte-budget charge to be refunded when the lease's
// count reaches zero. The caller must be the engine, immediately after
// acquiring the charge and while no other goroutine can touch the lease —
// the field writes are unsynchronized. This is how leased bytes stay
// charged against the budget until the buffer truly dies, not merely
// until the consuming filter returns. A lease carries at most one charge;
// an existing one (a pass-through filter returning a retained child lease
// as its output) must be dropped with dropGate before acquiring anew,
// never silently overwritten.
func (l *Lease) chargeGate(g *byteGate, size int64) {
	if l.gate != nil {
		panic("tbon: Lease already carries a budget charge")
	}
	l.gate, l.gateSize = g, size
}

// dropGate refunds the lease's budget charge (if any) immediately, under
// the same sole-holder conditions as chargeGate.
func (l *Lease) dropGate() {
	if l.gate != nil {
		l.gate.refund(l.gateSize)
		l.gate = nil
	}
}

// BytesFilter adapts a plain byte-slice filter to the leased-buffer
// contract: the adapted function sees the child payloads as []byte views
// valid for the duration of the call, and its output is wrapped in a fresh
// lease. Suitable for filters that neither retain input bytes nor recycle
// output buffers — protocol ack merges, tests, simple aggregations.
//
// The adapted function's output must be a buffer it owns — NOT one of the
// child slices or a sub-slice of one. The adapter cannot pin a child
// buffer under the output lease, so an aliasing output would view memory
// the engine releases (and a pooling leaf recycles) right after the
// call. A pass-through filter must be written against the Filter
// signature directly, retaining the child lease it returns.
func BytesFilter(f func(children [][]byte) ([]byte, error)) Filter {
	return func(children []*Lease) (*Lease, error) {
		bs := make([][]byte, len(children))
		for i, c := range children {
			bs[i] = c.Bytes()
		}
		out, err := f(bs)
		if err != nil {
			return nil, err
		}
		return NewLease(out, nil), nil
	}
}
