// Package sample implements the batched direct-to-tree sampling engine:
// the daemon-side replacement for the per-sample walk→resolve→merge loop
// that Section VI of the paper identifies as the daemon bottleneck at
// 208K tasks. Instead of materializing a fresh []trace.Frame per sample,
// binary-searching the symbol table per frame, and folding one trace at a
// time into a prefix tree, a daemon's whole gather round runs as one
// batched pipeline:
//
//  1. Raw PC stacks walk straight into a prefix trie — one node per
//     distinct call-path edge — and each stack sets its task bit once,
//     on the node where it ends (in the all-samples label, and for the
//     last sample in the last-sample label). No per-sample frame slice,
//     no intermediate trees, no tree merges, no per-frame bit sets.
//  2. Each trie edge is keyed by the PC ranges that resolve to it. A
//     frame descends by range check against its node's spans — one
//     unsigned compare per span, no hashing — and only a PC outside
//     every span asks the shared resolver (stackwalk.Cache.ResolveSpan),
//     which returns the frame's name, dense name ID and the range over
//     which that answer holds: the whole function at plain granularity,
//     the single PC at detailed granularity or for an unresolvable "??"
//     PC. The walk then finds the child by ID (verified by name) or
//     inserts it, and records the span. At plain granularity a drifting
//     stack whose PCs stay inside functions the node has seen therefore
//     resolves nothing at all, and a frozen stack descends exactly like a
//     drifting one. The walker also keeps the previous stack's descent
//     as a path of spans: the next stack follows it while its PCs stay
//     inside them — one compare per shared frame — and searches spans
//     only from its first differing frame on.
//  3. The round seals the trie in post-order: each child touched this
//     round is ORed into its parent over the label words the round's
//     task indexes occupy, so a sealed label is exactly the set of tasks
//     whose stacks pass through the edge, and a node joins the 2D view
//     when a last-sample stack ended on it or below it. Seal then
//     compresses the labels under Request.Compress, and the round emits
//     trace.Trees: pooled nodes (trace.NewPooledNode) referencing the
//     sealed labels, so emission copies nothing and the wire encode reads
//     labels exactly where the seal left them.
//
// # The seal/emit contract
//
// A walker's trie persists across rounds (epochs) — the structural
// working set of a spinning application is stable, so steady-state rounds
// create no nodes and no vectors, and the whole sample phase runs
// allocation-free. The trie is bounded by the distinct call-path
// population at symbol granularity (small by construction).
//
// The spans are bounded with the trie: a node holds one span per child
// per symbol range at plain granularity, and one per distinct PC at
// detailed granularity or in a symbol gap, so a walker's span memory
// grows with the PC population its daemon's stacks cover, not with how
// many rounds it walks, and a warm round allocates nothing whether its
// stacks are frozen or drifting.
//
// A walker — trie, spans, path and scratch — belongs to the goroutine
// that called Sample or SampleKeyed, for the duration of that call and
// of the batch it returns. The engine starts no goroutines of its own,
// so a walker is only ever walked, sealed and emitted by its caller, in
// that order, and nothing reads a trie while it is walked. Label
// accumulators are double-buffered by round parity: round N writes slot
// N&1 and lazily resets it on first touch, leaving the other slot —
// round N-1's sealed labels — untouched for delta extraction. Emit reads
// the sealed slot directly and keeps the children stamped with the
// sealed epoch; a sealed slot stays unchanged until the walk two rounds
// later.
//
// Batches: the trees returned by Sample/SampleKeyed alias label
// storage owned by the walker — labels live in the sealed slot, headers
// are the walker's two reusable Tree structs. They are read-only and die
// at Batch.Release; encode before releasing, and never retain the trees
// past it.
//
// # Delta extraction (streaming mode)
//
// A round sealed with Request.Delta whose walker sealed the immediately
// preceding epoch under a compatible shape additionally computes, inside
// the same seal, the XOR of the two rounds' labels per trie node, and the
// batch then carries delta trees (Batch.Delta2D/3D) instead of whole
// trees — the wire form of "only what changed". The extraction must
// happen at seal time because the previous round's parity slot is
// exactly the one the next walk overwrites; the results live in
// single-buffered per-node scratch valid until the next seal, one round —
// see delta.go for the full case analysis and validity rules, and
// trace.ApplyDelta for the front-end fold.
//
// Workers: walk slots, not walkers, bound concurrency (the "parallel
// daemon walkers"). The engine holds `workers` slot tokens, and a token is
// held only while a walk and its seal run on the Sample/SampleKeyed
// caller's goroutine, so at most `workers` walks run at once and callers
// past the bound block on a slot (Stats.SlotWaitNanos). Walkers
// themselves live on a free list, created on demand: a pooled walker
// stays checked out from its caller's walk until Batch.Release, because
// the emitted trees alias its labels, but it holds no slot while the
// batch is encoded and shipped. A caller waits for a slot holding nothing
// else, so the scheme cannot deadlock.
package sample

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stat/internal/mpisim"
	"stat/internal/stackwalk"
	"stat/internal/trace"
)

// Engine is the shared sampling state of one tool instance: the resolver
// caches (one per frame granularity), the walk slots and the walker pool.
// Safe for concurrent Sample/SampleKeyed calls.
type Engine struct {
	app    *mpisim.App
	plain  *stackwalk.Cache
	detail *stackwalk.Cache

	// slots bounds concurrent walks: a walk and its seal run holding one of
	// its `workers` tokens (a send), released (a receive) before the round
	// emits. No goroutine waits on anything else while holding a token.
	workers int
	slots   chan struct{}

	// free holds the pooled walkers no caller has checked out, warm tries
	// kept for reuse; a checkout on an empty list builds a new walker. A
	// walker is checked out from its round's walk until Batch.Release.
	// Guarded by freeMu.
	freeMu sync.Mutex
	free   []*walker

	// keyed holds the resident per-key walkers of SampleKeyed — one trie
	// per streaming daemon, alive for the engine's lifetime so consecutive
	// rounds of the same daemon always land on the same trie (the delta
	// extractor's continuity requirement). Guarded by keyedMu; the walkers
	// themselves are single-owner like pooled ones (one SampleKeyed per
	// key at a time).
	keyedMu sync.Mutex
	keyed   map[int]*walker

	sampled  atomic.Int64
	resolved atomic.Int64

	sealed   atomic.Int64
	deltas   atomic.Int64
	slotWait atomic.Int64
}

// New builds an engine sampling the given application through the given
// symbol table. workers bounds concurrent daemon walks; <= 0 means
// GOMAXPROCS.
func New(app *mpisim.App, st *stackwalk.SymbolTable, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		app:     app,
		plain:   stackwalk.NewCache(st, false),
		detail:  stackwalk.NewCache(st, true),
		workers: workers,
		slots:   make(chan struct{}, workers),
	}
	return e
}

// acquireSlot takes a walk slot, blocking while `workers` walks run. Only
// a failed non-blocking try reads the clock, so an uncontended walk pays
// no clock read; the blocked time adds to Stats.SlotWaitNanos.
func (e *Engine) acquireSlot() {
	select {
	case e.slots <- struct{}{}:
		return
	default:
	}
	start := time.Now()
	e.slots <- struct{}{}
	e.slotWait.Add(time.Since(start).Nanoseconds())
}

// releaseSlot returns a walk slot.
func (e *Engine) releaseSlot() { <-e.slots }

// Slots reports the engine's walk-slot count: how many daemon walks may
// run at once.
func (e *Engine) Slots() int { return e.workers }

// getWalker checks a pooled walker out, building one when none is free.
func (e *Engine) getWalker() *walker {
	e.freeMu.Lock()
	defer e.freeMu.Unlock()
	if n := len(e.free); n > 0 {
		w := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return w
	}
	return &walker{eng: e}
}

// putWalker returns a checked-out walker to the pool.
func (e *Engine) putWalker(w *walker) {
	e.freeMu.Lock()
	e.free = append(e.free, w)
	e.freeMu.Unlock()
}

// Request describes one daemon's gather round.
type Request struct {
	// Ranks are the daemon's global MPI ranks in local order.
	Ranks []int
	// GlobalIndex selects the bit index each rank sets: its global rank
	// (the original full-width representation) when true, its local
	// position in Ranks (the hierarchical subtree-local representation)
	// when false.
	GlobalIndex bool
	// Width is the task-space width of the emitted trees.
	Width int
	// Samples and Threads are the walk counts per task, Base the first
	// sample index of the round (the daemon's epoch minus Samples).
	Samples, Threads int
	Base             int
	// Detail selects function+offset frame granularity.
	Detail bool
	// Compress emits each tree label as a frozen compressed rank set
	// (bitvec.CompressVector) when the population's run structure makes it
	// smaller than the dense words — the daemon-side producer of the v3
	// (STR3) adaptive containers. Labels stay dense when dense is smallest.
	// The emitted trees remain read-only either way; the compressed sets
	// are frozen at seal time and cached per trie node, so steady-state
	// rounds stay allocation-free once the extent buffers have grown to
	// the working set.
	Compress bool
	// Want2D / Want3D select which trees to emit: the last-sample
	// trace×space tree and/or the all-samples trace×space×time tree.
	Want2D, Want3D bool
	// Delta requests round-over-round delta extraction (see delta.go):
	// when the walker's previous seal was the immediately preceding epoch
	// under a compatible shape, the batch carries XOR delta trees
	// (Delta2D/Delta3D, DeltaOK=true) instead of whole trees; otherwise —
	// first round, re-walked round, shape change, recycled walker — it
	// falls back to the whole trees as if Delta were unset. Delta affects
	// only the seal, never the walk.
	Delta bool
	// Timed asks the engine to report the round's walk and seal durations
	// in Batch.WalkNanos/SealNanos — the telemetry plane's leaf spans. It
	// changes nothing about the sampled trees.
	Timed bool
}

// Batch is one gather round's product. The trees alias walker-owned
// label storage; see the package contract notes.
type Batch struct {
	// Tree2D and Tree3D are the requested trees (nil when not requested,
	// or when the round produced delta trees instead — see DeltaOK).
	Tree2D, Tree3D *trace.Tree
	// Delta2D and Delta3D are the round's XOR delta trees (delta.go),
	// populated instead of Tree2D/Tree3D when Request.Delta was set and
	// the round qualified. Their labels alias single-buffered walker
	// scratch valid only until the walker's next seal — one round, within
	// the batch lifetime contract (encode, then Release, before the next
	// round) but stricter than the two-seal whole-tree guarantee.
	Delta2D, Delta3D *trace.Tree
	// DeltaOK reports which pair this batch carries: delta trees when
	// true, whole trees when false.
	DeltaOK bool
	// WalkNanos and SealNanos are the round's walk and seal durations,
	// populated only when Request.Timed was set.
	WalkNanos int64
	SealNanos int64
	w         *walker
	e         *Engine
	// keyed marks a batch whose walker is a resident keyed one, which
	// does not return to the pool at Release.
	keyed bool
}

// Release ends the batch: the emitted trees die and — unless the walker
// is a resident keyed one — the walker returns to the engine's pool.
// Release is idempotent on the zero Batch but must be called exactly once
// per Sample/SampleKeyed.
func (b *Batch) Release() {
	if b.w == nil {
		return
	}
	if b.Tree2D != nil {
		b.Tree2D.Release()
		b.Tree2D = nil
	}
	if b.Tree3D != nil {
		b.Tree3D.Release()
		b.Tree3D = nil
	}
	if b.Delta2D != nil {
		b.Delta2D.Release()
		b.Delta2D = nil
	}
	if b.Delta3D != nil {
		b.Delta3D.Release()
		b.Delta3D = nil
	}
	w := b.w
	b.w = nil
	if b.keyed {
		return
	}
	b.e.putWalker(w)
}

// Sample runs one daemon's batched walk — walk, seal, emit, in strict
// sequence on the caller's goroutine — on a pooled walker and returns its
// trees. The walk and seal block while `workers` walks hold every slot —
// the bounded-worker guarantee; the emit runs after the slot is returned.
func (e *Engine) Sample(req Request) Batch {
	e.acquireSlot()
	return e.round(e.getWalker(), req, false)
}

// timedWalk and timedSeal run the walker phase, measuring it only when
// the request asks (Request.Timed) so untimed rounds pay no clock reads.
func timedWalk(w *walker, req Request) int64 {
	if !req.Timed {
		w.walk(req)
		return 0
	}
	start := time.Now()
	w.walk(req)
	return time.Since(start).Nanoseconds()
}

func timedSeal(w *walker, req Request) int64 {
	if !req.Timed {
		w.seal(req)
		return 0
	}
	start := time.Now()
	w.seal(req)
	return time.Since(start).Nanoseconds()
}

// SampleKeyed runs one round on the resident walker for key —
// the streaming mode's sampling entry point. Unlike Sample, which draws
// whichever pooled walker frees up first, SampleKeyed guarantees that
// every round with the same key lands on the same trie, which is what
// round-over-round delta extraction (Request.Delta) requires: the
// previous round's labels must be this walker's previous seal, not some
// other daemon's. Resident walkers live for the engine's lifetime: one
// trie per streaming daemon is the memory cost of continuous monitoring,
// and it stays bounded across rounds — nodes by the daemon's call-path
// population, spans by the PC ranges its stacks cover. The
// walk-concurrency bound holds because the walk and seal run on a slot
// like every other walk. At most one SampleKeyed per key may run at a
// time, and its batch must be released before the key's next round.
func (e *Engine) SampleKeyed(key int, req Request) Batch {
	w := e.keyedWalker(key)
	e.acquireSlot()
	return e.round(w, req, true)
}

// keyedWalker returns (creating on first use) the resident walker for key.
func (e *Engine) keyedWalker(key int) *walker {
	e.keyedMu.Lock()
	defer e.keyedMu.Unlock()
	if e.keyed == nil {
		e.keyed = make(map[int]*walker)
	}
	w := e.keyed[key]
	if w == nil {
		w = &walker{eng: e}
		e.keyed[key] = w
	}
	return w
}

// round walks and seals on the walk slot the caller holds, returns the
// slot, then emits the sealed round into the walker's tree headers and
// wraps the batch. A round that qualified for delta extraction emits only
// the delta trees — skipping the whole-tree emit is half the point of the
// streaming mode's steady state.
func (e *Engine) round(w *walker, req Request, keyed bool) Batch {
	walkNs := timedWalk(w, req)
	sealNs := timedSeal(w, req)
	e.releaseSlot()
	b := Batch{w: w, e: e, keyed: keyed, WalkNanos: walkNs, SealNanos: sealNs}
	if w.deltaOK {
		w.emitDeltaTrees(req)
		b.DeltaOK = true
		if req.Want2D {
			b.Delta2D = &w.d2h
		}
		if req.Want3D {
			b.Delta3D = &w.d3h
		}
		return b
	}
	w.emitTrees(req)
	if req.Want2D {
		b.Tree2D = &w.t2h
	}
	if req.Want3D {
		b.Tree3D = &w.t3h
	}
	return b
}

// Stats are the engine's cumulative sampling counters.
type Stats struct {
	// SampledStacks counts stack walks (task × thread × sample) of the
	// rounds served.
	SampledStacks int64
	// StackMemoHits and DistinctStacks are always 0.
	//
	// Deprecated: they counted the whole-stack memo's hits and entries;
	// span-keyed trie edges replaced the memo. Read PCsResolved instead.
	StackMemoHits  int64
	DistinctStacks int64
	// PCsResolved counts per-PC resolver calls: frames whose PC fell in
	// none of its trie node's spans (span hits skip them);
	// PCCacheMisses counts the ones that fell through to a real
	// symbol-table search — each distinct PC pays exactly once while the
	// cache is below its cap.
	PCsResolved   int64
	PCCacheMisses int64
	// Snapshots counts sealed rounds — one per sampled round.
	Snapshots int64
	// DeltaRounds counts sealed rounds that qualified for and extracted a
	// round-over-round delta (delta.go); rounds requested with Delta but
	// falling back to whole trees do not count.
	DeltaRounds int64
	// SlotWaitNanos sums the time walks spent blocked on a walk slot
	// because `workers` walks already held every slot. Near zero when the
	// slots keep up with the callers.
	SlotWaitNanos int64
}

// Stats reports the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		SampledStacks: e.sampled.Load(),
		PCsResolved:   e.resolved.Load(),
		PCCacheMisses: e.plain.Misses() + e.detail.Misses(),
		Snapshots:     e.sealed.Load(),
		DeltaRounds:   e.deltas.Load(),
		SlotWaitNanos: e.slotWait.Load(),
	}
}
