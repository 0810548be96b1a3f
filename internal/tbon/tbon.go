// Package tbon implements a tree-based overlay network in the style of
// MRNet: a front end at the root, communication processes in the middle,
// and tool daemons at the leaves. Upstream reductions apply a caller-
// supplied filter at every interior node — for STAT, the filter is the
// prefix-tree merge — so data volume is reduced as it propagates toward
// the front end. The reduction runs for real, in process, on a worker
// pool, and records per-node byte counts; wall-clock time at machine scale
// is then computed from those counts by the timing model in timing.go.
//
// # The reduction engine
//
// A worker pool evaluates the topology DAG. Workers claim leaves in order
// and produce their payloads; a completed node's payload is delivered to
// its parent, and independent subtrees run concurrently. Each interior
// node folds its children in child order into an accumulator the filter
// keeps between calls (NodeFilter): each Fold call takes the contiguous
// child payloads that arrived since the last one, and one Emit makes the
// node's output after its last child. For any fold that is associative
// over ordered inputs (both prefix-tree merges are) the result is
// byte-identical however the children are grouped, at every worker count
// and budget, and the traffic statistics are identical too.
//
// A rank-ordered gate (byteGate) bounds the payloads resident between
// production and folding. By default it admits at most one
// produced-but-unfolded payload per worker ahead of the head of line (the
// payload the one-worker fold would consume next), so peak memory scales
// with the worker count, not with the fleet; ReduceOptions.BudgetBytes
// swaps that bound for an explicit byte budget. While a byte budget has
// room a node defers its fold, so that it usually folds all k children in
// one call when the last one arrives — the fan-in-k merge of the paper's
// comm processes. Under the default bound every slot is reserved for a
// worker's next payload, so nodes fold as their prefixes arrive — with
// ReduceOptions.Workers = 1 that is the plain sequential fold: one child
// payload into the live accumulator per call.
//
// # Buffer lifetime
//
// Payloads move as refcounted leased buffers (Lease), not throwaway
// byte slices. The contract:
//
//   - A filter's Fold receives its child payloads as leases the engine owns. The
//     bytes are valid for the duration of the call; a filter that wants
//     them to outlive the call (a zero-copy decoder whose decoded tree
//     views the wire buffer, say) calls Retain and pairs it with Release
//     when the derived structure dies. Filters must not mutate input
//     bytes: a retained buffer may still be counted, logged, or viewed by
//     the engine.
//
//   - A filter's Emit returns its output as a lease it mints (NewLease), which
//     transfers ownership to the engine. The free hook is how a filter
//     recycles pooled output buffers: the engine releases its reference
//     once the payload has been consumed upstream, and the buffer returns
//     to the filter's pool with no copying anywhere in between. A
//     pass-through filter may return a child lease itself (Retain it
//     first), but must then hand the engine exclusive ownership of that
//     return: keeping further references that other goroutines release
//     concurrently races the engine's budget bookkeeping on the lease.
//
//   - A payload stays charged against the gate (its bytes against
//     ReduceOptions.BudgetBytes, or its slot against the per-worker bound)
//     from the moment it is produced until the last reference is released
//     — not merely until the consuming filter returns. A filter that pins
//     child buffers therefore holds budget; the head-of-line bypass still
//     guarantees progress, but a filter that pins payloads indefinitely
//     starves the budget by design.
//
//   - The reduction result returned by the Reduce variants is an unleased
//     byte slice owned by the caller: the root payload's lease is retired
//     without recycling, so the bytes stay valid indefinitely.
//
// Leaf payloads come in two forms. The plain leafData callbacks of
// ReduceWith return byte slices the engine wraps in hookless leases;
// ownership transfers to the engine — a leaf callback must hand out a
// buffer it will not reuse. The leased form (LeafFunc, via
// ReduceNodeLeasedWith) lets leaves mint their payloads from pooled
// buffers behind real leases — the lease's free hook returns the buffer
// to the leaf's pool once the consuming filter (and anything that
// retained the payload) is done with it, extending the zero-allocation
// payload cycle all the way down to payload production.
//
// # Failure semantics
//
// By default a reduction is all-or-nothing: the first error anywhere in
// the overlay — a leaf callback failing, a scripted fault, a filter
// rejecting its inputs — fails the whole run, and the engine sweeps every
// stranded lease on the way out so pooled buffers survive the failure
// (LiveLeases must return to its pre-reduction baseline, which the
// fault-injection tests assert).
//
// ReduceOptions.Partial switches the contract from all-or-nothing to
// degrade-gracefully, the regime the paper's scale demands:
//
//   - Faults are tolerated; bugs are not. A daemon that crashes or times
//     out (ReduceOptions.SubtreeTimeout), or a subtree behind a partitioned
//     or too-slow uplink, is dropped — its child position is reported in
//     FilterCtx.Missing and the surviving children still merge. A filter
//     error remains fatal in every mode: it indicts the data, not the
//     fabric.
//
//   - Filters see what is missing. Partial reductions require a
//     position-aware NodeFilter (ReduceNodeLeasedWith): each call carries a
//     FilterCtx naming the topology node, the child position of each
//     input, and the missing positions (complete at Emit), which is what
//     lets core's result filter attach an explicit liveness set to a
//     partial packet. A node all of whose children are lost emits nothing
//     and is itself reported
//     missing one level up; if nothing reaches the front end the reduction
//     fails ("no surviving subtree").
//
//   - Orphans are re-parented. A crashed communication process leaves its
//     children's payloads undelivered, not lost: they still fold, with
//     FilterCtx.Node naming the dead node, and the result takes the dead
//     node's position in its parent, so a comm-process crash loses
//     nothing at all.
//
//   - Lease lifetime on error paths is unchanged: stranded payloads are
//     swept on both failed and partial runs before returning, and every
//     open accumulator is handed to NodeFilter.Drop.
//
// FaultPlan scripts crashes, slow links, and partitioned links per node
// for tests and the emulation harness; see its documentation for how each
// fault surfaces.
package tbon

import (
	"time"

	"stat/internal/topology"
)

// Engine names a reduction evaluation strategy. It is an alias of int so
// that core.Options.Engine, which must stay zero, need not name it.
//
// Deprecated: the pipelined pool is the only engine.
type Engine = int

// EnginePipelined is the worker-pool fold, the zero Engine.
//
// Deprecated: the pipelined pool is the only engine.
const EnginePipelined Engine = 0

// ReduceOptions configure one reduction.
type ReduceOptions struct {
	// Workers bounds the engine's concurrency; <= 0 means
	// runtime.GOMAXPROCS(0). One worker is the sequential fold: leaves
	// are produced and folded strictly in post-order.
	Workers int
	// BudgetBytes bounds the payload bytes kept resident between
	// production and folding. <= 0 bounds payloads instead of bytes: at
	// most one produced-but-unfolded payload per worker is admitted ahead
	// of the head of line. Either way the payload the sequential fold
	// would consume next is always admitted, so the reduction cannot
	// deadlock however small the bound, and each worker may hold one more
	// payload waiting for admission (its size is only known once
	// produced): the hard bound is BudgetBytes plus one payload per
	// worker, or about two payloads per worker by default. A node defers
	// its fold only while a byte budget has room, so a roomier budget buys
	// wider folds (all k children in one call), not more resident payloads
	// than it admits; the default bound never defers.
	// Stats.PeakInFlightBytes reports the realized peak in bytes.
	BudgetBytes int64
	// SubtreeTimeout bounds how long a node waits on any one child
	// subtree's payload: it is wrapped around leaf production and caps
	// the delay of a slow uplink (FaultPlan.SlowLinks). Zero waits
	// forever. A timeout surfaces as a failed run unless Partial is set,
	// in which case the subtree is dropped and the reduction degrades.
	SubtreeTimeout time.Duration
	// Partial makes the reduction degrade instead of failing whole-run: a
	// child subtree that times out, crashes, or partitions is marked
	// missing (FilterCtx.Missing) and the surviving children still merge.
	// A crashed interior node's children are re-parented rather than
	// lost. Filter logic errors remain fatal — only faults are tolerated.
	Partial bool
	// Faults scripts injected failures for this reduction — the
	// fault-injection harness. nil injects nothing.
	Faults *FaultPlan
	// WaitObserver, when non-nil, is called once per admitted non-root
	// payload with the nanoseconds it spent blocked at the gate before
	// the in-flight bound made room for it (zero for the head of line
	// and whenever the bound had room) — the telemetry plane's
	// reduce-wait span. It measures gate admission time only: neither
	// payload production nor a fold the blocked worker runs to advance
	// the head of line counts. Called from worker goroutines
	// concurrently; must be cheap, non-blocking, and allocation-free.
	WaitObserver func(ns int64)
}

// LeafFunc supplies one leaf daemon's payload as a lease whose single
// reference transfers to the engine. A leaf that mints its payload from a
// pooled buffer hands the pool's Put as the lease's free hook and sees the
// buffer come back once the payload dies — the leased-buffer contract's
// leaf end.
type LeafFunc func(leaf int) (*Lease, error)

// ReduceWith runs one upstream reduction with plain byte-slice leaves and
// a position-blind filter: each returned buffer is wrapped in a hookless
// lease, and its ownership transfers to the engine. The filter runs as a
// fold whose accumulator is its own previous output (leaseFold).
func (n *Network) ReduceWith(opts ReduceOptions, leafData func(leaf int) ([]byte, error), filter Filter) ([]byte, *Stats, error) {
	leaf := func(i int) (*Lease, error) {
		b, err := leafData(i)
		if err != nil {
			return nil, err
		}
		return NewLease(b, nil), nil
	}
	return n.ReduceNodeLeasedWith(opts, leaf, leaseFold(func(_ *FilterCtx, in []*Lease) (*Lease, error) {
		return filter(in)
	}))
}

// Filter combines payloads into one. Inputs are ordered by child
// position; as a fold (ReduceWith) a node's first call takes its first
// arrived children, and each later call takes the previous output
// followed by the next arrived children. The root's last output is the
// reduction result.
//
// Inputs are leases owned by the engine: their bytes are valid for the
// duration of the call, and a filter retains any it needs longer. The
// output lease transfers to the engine; see the package documentation's
// buffer-lifetime contract. BytesFilter adapts plain []byte filters.
type Filter func(children []*Lease) (*Lease, error)

// leaseFold runs a Filter as a NodeFilter whose accumulator is the
// filter's previous output lease.
type leaseFold func(ctx *FilterCtx, in []*Lease) (*Lease, error)

func (f leaseFold) Fold(ctx *FilterCtx, acc any, in []*Lease) (any, error) {
	if acc != nil {
		prev := acc.(*Lease)
		defer prev.Release()
		in = append([]*Lease{prev}, in...)
	}
	out, err := f(ctx, in)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (leaseFold) Emit(_ *FilterCtx, acc any) (*Lease, error) { return acc.(*Lease), nil }

func (leaseFold) Drop(acc any) { acc.(*Lease).Release() }

// Network is an overlay ready to run reductions and broadcasts over a
// fixed topology.
type Network struct {
	topo *topology.Tree
}

// New creates a network over the given topology.
func New(topo *topology.Tree) *Network { return &Network{topo: topo} }

// Topology returns the layout the network runs over.
func (n *Network) Topology() *topology.Tree { return n.topo }

// Stats records the traffic of one reduction or broadcast.
type Stats struct {
	// NodeInBytes is the total payload bytes a node received from below
	// (reduction) or above (broadcast).
	NodeInBytes map[int]int64
	// NodeOutBytes is the payload bytes a node sent to its parent
	// (reduction) or to all children (broadcast).
	NodeOutBytes map[int]int64
	// LevelInBytes[d] sums NodeInBytes over nodes at depth d.
	LevelInBytes []int64
	// Packets counts point-to-point messages.
	Packets int64
	// PeakInFlightBytes is the largest total of payload bytes resident
	// between production and folding during a reduction (zero for a
	// broadcast).
	PeakInFlightBytes int64
}

func newStats(levels int) *Stats {
	return &Stats{
		NodeInBytes:  make(map[int]int64),
		NodeOutBytes: make(map[int]int64),
		LevelInBytes: make([]int64, levels),
	}
}

// MaxInBytesAtLevel reports the largest single-node ingress at depth d.
func (s *Stats) MaxInBytesAtLevel(topo *topology.Tree, d int) int64 {
	var max int64
	for _, n := range topo.Levels[d] {
		if b := s.NodeInBytes[n.ID]; b > max {
			max = b
		}
	}
	return max
}

// Broadcast sends data from the front end to every daemon and returns the
// payload observed at each leaf (by leaf index) with traffic stats. Used by
// the SBRS binary relocation service.
func (n *Network) Broadcast(data []byte) ([][]byte, *Stats, error) {
	stats := newStats(len(n.topo.Levels))
	out := make([][]byte, n.topo.NumLeaves())
	var rec func(node *topology.Node, payload []byte)
	rec = func(node *topology.Node, payload []byte) {
		if node.Level > 0 {
			stats.NodeInBytes[node.ID] += int64(len(payload))
			stats.LevelInBytes[node.Level] += int64(len(payload))
			stats.Packets++
		}
		if node.IsLeaf() {
			out[node.LeafIndex] = payload
			return
		}
		stats.NodeOutBytes[node.ID] = int64(len(payload)) * int64(len(node.Children))
		for _, c := range node.Children {
			rec(c, payload)
		}
	}
	rec(n.topo.Root, data)
	return out, stats, nil
}
