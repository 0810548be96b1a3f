package sample

import (
	"sort"
	"sync/atomic"
	"time"

	"stat/internal/bitvec"
	"stat/internal/stackwalk"
	"stat/internal/trace"
)

// walker is one pooled daemon-walk state: the persistent trie, the stack
// memo, the PC scratch buffer, and two reusable tree headers. At any
// instant a walker has exactly one owner — the Sample/SampleOverlap caller
// or, between a seal and the next claim, the background walk goroutine —
// and ownership hands off through channels, so every plain field is
// single-writer. The only cross-owner reads go through each trie node's
// atomically published snapshot (see snapshot.go).
type walker struct {
	eng   *Engine
	cache *stackwalk.Cache
	// keyed marks a resident SampleKeyed walker (one per streaming
	// daemon) as opposed to a pooled one; it sizes the memo budget.
	keyed bool
	width int
	// epoch advances per round; trie labels reset lazily on first touch of
	// the round, so stale branches cost nothing. The epoch's parity selects
	// which accumulator slot the round writes (slot), leaving the other
	// slot — the previous round's sealed labels — untouched for concurrent
	// snapshot readers.
	epoch uint64
	slot  int

	// sealed is the epoch of the last published snapshot; sealedWidth its
	// task-space width. Emits read these instead of epoch/width because a
	// background walk for the next round may already be advancing the live
	// fields.
	sealed      uint64
	sealedWidth int
	// torn accumulates snapshot reads that had to hop back one published
	// version (snapshot.go); flushed to the engine counter per emit.
	torn int64

	root trieNode
	free []*trieNode // recycled trie nodes (after a granularity flip)

	pcs  []uint64
	path []*trieNode
	memo memoTable

	// Background-walk machinery (the overlap pipeline). bg feeds the
	// resident walk goroutine one Request per prefetch; bgDone returns the
	// walk's duration in nanoseconds. Both are created at the first
	// prefetch and live until Cancel closes bg, so a steady-state
	// overlapped round costs two channel operations and no allocation.
	bg     chan Request
	bgDone chan int64
	// bgCounts are the last background walk's counters, handed over with
	// bgDone and accounted only if a round claims the walk.
	bgCounts walkCounts
	preReq   Request
	preHdl   Prefetch
	preLive  bool

	// Delta-extraction state (delta.go): the request the last seal ran
	// under (the compatibility reference for the next round's delta) and
	// whether the current sealed round carries a valid delta.
	prevSealReq Request
	deltaOK     bool

	t2h, t3h trace.Tree
	// d2h / d3h are the reusable headers for the delta trees, the XOR
	// counterparts of t2h/t3h.
	d2h, d3h trace.Tree
}

// memoTable is the walker-local whole-stack memo: an arena of entries
// indexed by open-addressing slots keyed by the already-computed stack
// hash, so a probe is an array walk rather than a runtime map access
// (which would hash the key a second time and cannot reuse ours). Owned
// by whichever goroutine currently owns the walker, like the rest of the
// walk state.
//
// The memo holds at most budget entries (memoBudget, set per walk from
// the request and the walker's kind). A miss that finds it full flushes it in place: the slots
// are cleared and the arena refills from its first entry, copying each
// new stack into the PC and path arrays the flushed entry left behind. So
// the memo's memory is bounded by the walk's tasks × threads, not by the
// distinct stacks a long session sees, and once the arena is warm a miss
// allocates nothing. The arena grows lazily, one doubling at a time, so a
// walker that only ever sees a few distinct stacks holds only those.
type memoTable struct {
	mask    uint64
	slots   []uint32 // entry index + 1; 0 marks an empty slot
	entries []memoStack
	count   int // live entries: entries[:count]
	budget  int
}

// memoFloor is the smallest memo budget, so walks over a handful of tasks
// still memoize every stack a few rounds produce before anything flushes.
const memoFloor = 64

// memoBudget bounds a walk's stack memo. Every walker has room for two
// stacks per task thread: each task's frozen stacks plus as many novel
// ones before the memo flushes. A resident keyed walker walks each sample
// command once — a streamed round always brings a new one — so that is
// all it keeps, and its memory, multiplied by one walker per streaming
// daemon, stays O(tasks × threads). A pooled walker, of which the engine
// holds at most `workers`, also keeps room for a whole round's stacks, so
// when it walks the same daemon's same sample instants again (a re-gather
// of one sample command, such as a stream round's whole-tree retry) every
// stack hits, drifting or not.
func memoBudget(req Request, keyed bool) int {
	perThread := 2
	if !keyed {
		perThread = max(2, req.Samples)
	}
	return max(memoFloor, perThread*len(req.Ranks)*req.Threads)
}

// lookup returns the entry whose hash matches, or nil. The caller must
// verify the stored PCs — two stacks may share a hash. The pointer is
// valid until the next insert.
func (t *memoTable) lookup(h uint64) *memoStack {
	if t.slots == nil {
		return nil
	}
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		ref := t.slots[i]
		if ref == 0 {
			return nil
		}
		if e := &t.entries[ref-1]; e.hash == h {
			return e
		}
	}
}

// insert memoizes a stack and its trie path, flushing first when the memo
// holds its budget; it reports whether it flushed. The caller has already
// established no entry with this hash exists.
func (t *memoTable) insert(h uint64, pcs []uint64, path []*trieNode) (flushed bool) {
	if t.count >= t.budget {
		t.clear()
		flushed = true
	}
	if t.slots == nil || (t.count+1)*2 > len(t.slots) {
		t.growSlots()
	}
	if t.count == len(t.entries) {
		if t.count == cap(t.entries) {
			grown := make([]memoStack, t.count, min(t.budget, max(16, 2*t.count)))
			copy(grown, t.entries)
			t.entries = grown
		}
		t.entries = t.entries[:t.count+1]
	}
	e := &t.entries[t.count]
	e.hash = h
	e.pcs = append(e.pcs[:0], pcs...)
	e.path = append(e.path[:0], path...)
	t.count++
	t.place(h, uint32(t.count))
	return flushed
}

// growSlots doubles the slot table (keeping load at most 1/2) and
// re-places the live entries.
func (t *memoTable) growSlots() {
	size := 2 * len(t.slots)
	if size == 0 {
		size = 2 * memoFloor
	}
	t.slots = make([]uint32, size)
	t.mask = uint64(size - 1)
	for i := 0; i < t.count; i++ {
		t.place(t.entries[i].hash, uint32(i+1))
	}
}

func (t *memoTable) place(h uint64, ref uint32) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		if t.slots[i] == 0 {
			t.slots[i] = ref
			return
		}
	}
}

// clear empties the memo, keeping the slot table and the entries' arrays
// for reuse.
func (t *memoTable) clear() {
	clear(t.slots)
	t.count = 0
}

// trieNode is one distinct call-path edge. Edges compare by the resolver
// cache's dense name ID; children stay sorted by name so emission walks in
// the order trace trees require.
//
// Every mutable accumulator is double-buffered by round parity: round N
// writes slot N&1 while snapshot readers of round N-1 read slot (N-1)&1.
// A slot's contents are therefore immutable from the moment its round is
// sealed until the walk two rounds later — the window the snapshot/emit
// contract (package doc) promises readers.
type trieNode struct {
	name string
	id   uint32
	// all accumulates every sample's tasks; last only the final sample's
	// (the 2D tree). Valid only at their slot's epoch stamps.
	all  [2]*bitvec.Vector
	last [2]*bitvec.Vector
	// allSet / lastSet cache the frozen compressed views built at seal
	// under Request.Compress; CompressVector rebuilds a slot's set in
	// place every other round, reusing its extent storage, so compression
	// allocates nothing at steady state.
	allSet     [2]*bitvec.Set
	lastSet    [2]*bitvec.Set
	epochs     [2]uint64
	lastEpochs [2]uint64
	// children is replaced copy-on-write on insert (never mutated in
	// place) because published snapshots capture the slice and read it
	// concurrently with the next round's walk.
	children []*trieNode

	// snap is the node's published snapshot chain; snapBuf the two
	// rotating backing structs. See snapshot.go.
	snap    atomic.Pointer[nodeSnap]
	snapBuf [2]nodeSnap

	// Delta scratch (delta.go): the round-over-round XOR labels and the
	// per-tree child lists computed at seal time, read by the delta emit.
	// Single-buffered on purpose — the scratch is consumed by this round's
	// emit, which the engine retires before the next seal can overwrite
	// it, and the next round's background walk never touches these fields.
	dAll, dLast       *bitvec.Vector
	dAllSet, dLastSet *bitvec.Set
	dAllOut, dLastOut bitvec.Label
	dKids, dLastKids  []*trieNode
}

// memoStack is one memoized whole stack: the raw PCs (verified on hit, so
// a hash collision degrades to a normal walk instead of corrupting) and
// the trie path they map to, root included. Both arrays outlive a flush
// and are refilled by the entry's next occupant.
type memoStack struct {
	hash uint64
	pcs  []uint64
	path []*trieNode
}

// child finds the edge for a resolved frame. The dense ID is the fast
// discriminator; the name is verified on an ID match because IDs are only
// guaranteed unique for interned names — past the resolver cache's cap,
// novel names all carry stackwalk.OverflowID, and the name check keeps
// them on distinct edges.
func (n *trieNode) child(id uint32, name string) *trieNode {
	for _, c := range n.children {
		if c.id == id && c.name == name {
			return c
		}
	}
	return nil
}

// insertChild adds an edge copy-on-write: the old children array may be
// captured by a published snapshot whose emit is running concurrently, so
// a sorted in-place shift would tear under the reader. Novel edges only
// exist while the call-path population is still growing, so the copy is
// never on the steady-state path.
func (n *trieNode) insertChild(c *trieNode) {
	i := sort.Search(len(n.children), func(i int) bool {
		return n.children[i].name >= c.name
	})
	kids := make([]*trieNode, len(n.children)+1)
	copy(kids, n.children[:i])
	kids[i] = c
	copy(kids[i+1:], n.children[i:])
	n.children = kids
}

// touch stamps a node into the current round (lazily resetting its
// round-parity label slot) and sets the task bit.
func (w *walker) touch(n *trieNode, idx int, last bool) {
	s := w.slot
	if n.epochs[s] != w.epoch {
		n.epochs[s] = w.epoch
		if n.all[s] == nil {
			n.all[s] = bitvec.New(w.width)
		} else {
			n.all[s].Reset(w.width)
		}
	}
	n.all[s].Set(idx)
	if last {
		if n.lastEpochs[s] != w.epoch {
			n.lastEpochs[s] = w.epoch
			if n.last[s] == nil {
				n.last[s] = bitvec.New(w.width)
			} else {
				n.last[s].Reset(w.width)
			}
		}
		n.last[s].Set(idx)
	}
}

// newNode draws a trie node from the free list or the heap. A recycled
// node's published snapshot (if any) belongs to a pre-flip epoch that no
// reader can still want, but clearing it keeps stale chains from pinning
// label storage.
func (w *walker) newNode(id uint32, name string) *trieNode {
	var n *trieNode
	if k := len(w.free); k > 0 {
		n = w.free[k-1]
		w.free[k-1] = nil
		w.free = w.free[:k-1]
		n.snap.Store(nil)
	} else {
		n = &trieNode{}
	}
	n.id, n.name = id, name
	n.epochs[0], n.epochs[1] = 0, 0
	n.lastEpochs[0], n.lastEpochs[1] = 0, 0
	return n
}

// resetTrie drops every edge (recycling the nodes, labels attached, onto
// the free list) and clears the memo. Run on a frame-granularity flip:
// IDs from the plain and detailed caches live in different namespaces, so
// a trie built under one cannot be probed under the other. The engine
// never starts a background walk across a granularity flip (Engine
// canPrefetch), so resetTrie only ever runs with no snapshot reader live.
func (w *walker) resetTrie() {
	var rec func(n *trieNode)
	rec = func(n *trieNode) {
		for _, c := range n.children {
			rec(c)
			w.free = append(w.free, c)
		}
		for i := range n.children {
			n.children[i] = nil
		}
		n.children = n.children[:0]
	}
	rec(&w.root)
	w.memo.clear()
	w.root.epochs[0], w.root.epochs[1] = 0, 0
	w.root.lastEpochs[0], w.root.lastEpochs[1] = 0, 0
}

// walkCounts are one walk's contributions to the engine's cumulative
// counters. A walk returns them instead of adding them itself, so a
// speculative walk that no round claims is counted only as unclaimed
// (Engine.account, Stats.UnclaimedWalks).
type walkCounts struct {
	sampled, memoHits, resolved, distinct, flushes int64
}

// walk executes one round's sampling: every (rank, thread, sample) stack
// accumulates into the trie under the round's parity slot. It does not
// seal or emit — run seal and then emitTrees for the round's trees.
func (w *walker) walk(req Request) walkCounts {
	cache := w.eng.plain
	if req.Detail {
		cache = w.eng.detail
	}
	if cache != w.cache {
		w.resetTrie()
		w.cache = cache
	}
	w.width = req.Width
	w.memo.budget = memoBudget(req, w.keyed)
	w.epoch++
	w.slot = int(w.epoch & 1)

	// The root participates in every trace (its label is every
	// contributing task) and must exist even for an empty round, exactly
	// like trace.NewTree's sentinel.
	r := &w.root
	s := w.slot
	r.epochs[s] = w.epoch
	if r.all[s] == nil {
		r.all[s] = bitvec.New(w.width)
	} else {
		r.all[s].Reset(w.width)
	}
	if req.Want2D {
		r.lastEpochs[s] = w.epoch
		if r.last[s] == nil {
			r.last[s] = bitvec.New(w.width)
		} else {
			r.last[s].Reset(w.width)
		}
	}

	var cnt walkCounts
	lastSample := req.Samples - 1
	for local, rank := range req.Ranks {
		idx := local
		if req.GlobalIndex {
			idx = rank
		}
		for thread := 0; thread < req.Threads; thread++ {
			for smp := 0; smp < req.Samples; smp++ {
				w.pcs = w.eng.app.AppendStackPCs(w.pcs[:0], rank, thread, req.Base+smp)
				cnt.sampled++
				last := req.Want2D && smp == lastSample

				h := hashPCs(w.pcs)
				m := w.memo.lookup(h)
				if m != nil && equalPCs(m.pcs, w.pcs) {
					// Whole-stack memo hit: tick bits along the known
					// path, no resolution, no descent. Split on the
					// last-sample flag so the common loop carries no
					// per-node branch.
					cnt.memoHits++
					if last {
						for _, n := range m.path {
							w.touch(n, idx, true)
						}
					} else {
						for _, n := range m.path {
							if n.epochs[s] == w.epoch {
								n.all[s].Set(idx)
							} else {
								w.touch(n, idx, false)
							}
						}
					}
					continue
				}

				cnt.resolved += int64(len(w.pcs))
				n := r
				w.touch(n, idx, last)
				w.path = append(w.path[:0], n)
				for _, pc := range w.pcs {
					id, name := cache.Resolve(pc)
					c := n.child(id, name)
					if c == nil {
						c = w.newNode(id, name)
						n.insertChild(c)
					}
					w.touch(c, idx, last)
					w.path = append(w.path, c)
					n = c
				}
				if m == nil {
					if w.memo.insert(h, w.pcs, w.path) {
						cnt.flushes++
					}
					cnt.distinct++
				}
			}
		}
	}
	return cnt
}

// bgLoop is the walker's resident background-walk goroutine: one walk per
// request, duration reported back on bgDone. Started lazily at the first
// prefetch, it parks on bg between rounds and exits when Cancel closes
// the channel, so a pipelined walker costs one goroutine for the life of
// its pipeline and an overlapped round allocates nothing.
func (w *walker) bgLoop() {
	for req := range w.bg {
		start := time.Now()
		w.bgCounts = w.walk(req)
		w.bgDone <- time.Since(start).Nanoseconds()
	}
}

// emitTrees adopts the sealed round's snapshot emission into the walker's
// reusable tree headers. Must run after seal; safe while a background
// walk for the next round is already running.
func (w *walker) emitTrees(req Request) {
	if req.Want3D {
		w.t3h.AdoptRoot(w.sealedWidth, w.emitTree(false, &w.torn))
	}
	if req.Want2D {
		w.t2h.AdoptRoot(w.sealedWidth, w.emitTree(true, &w.torn))
	}
	if w.torn != 0 {
		w.eng.torn.Add(w.torn)
		w.torn = 0
	}
}

// hashPCs is FNV-1a folded over whole words — cheap, and collisions are
// harmless (verified against the stored PCs on every hit).
func hashPCs(pcs []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, pc := range pcs {
		h ^= pc
		h *= 1099511628211
	}
	return h
}

func equalPCs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
