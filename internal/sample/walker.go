package sample

import (
	"sort"
	"sync/atomic"

	"stat/internal/bitvec"
	"stat/internal/stackwalk"
	"stat/internal/trace"
)

// walker is one pooled daemon-walk state: the persistent trie, the PC
// scratch buffer, and the reusable tree headers. At any instant a walker
// has exactly one owner — the Sample/SampleKeyed caller that checked it
// out — so every plain field is single-writer. The only reads that could
// cross goroutines go through each trie node's atomically published
// snapshot (see snapshot.go).
type walker struct {
	eng   *Engine
	cache *stackwalk.Cache
	width int
	// epoch advances per round; trie labels reset lazily on first touch of
	// the round, so stale branches cost nothing. The epoch's parity selects
	// which accumulator slot the round writes (slot), leaving the other
	// slot — the previous round's sealed labels — untouched for delta
	// extraction and snapshot readers.
	epoch uint64
	slot  int

	// sealed is the epoch of the last published snapshot; sealedWidth its
	// task-space width. Emits read these rather than the live epoch/width.
	sealed      uint64
	sealedWidth int
	// torn accumulates snapshot reads that had to hop back one published
	// version (snapshot.go); flushed to the engine counter per emit.
	torn int64

	root trieNode
	free []*trieNode // recycled trie nodes (after a granularity flip)

	pcs []uint64

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

// trieNode is one distinct call-path edge. Edges compare by the resolver
// cache's dense name ID; children stay sorted by name so emission walks in
// the order trace trees require. The walk reaches a child through spans,
// the PC ranges known to resolve to it, and asks the resolver only when a
// PC falls in none of them.
//
// Every mutable accumulator is double-buffered by round parity: round N
// writes slot N&1 while snapshot readers of round N-1 read slot (N-1)&1.
// A slot's contents are therefore immutable from the moment its round is
// sealed until the walk two rounds later — the window the snapshot/emit
// contract (package doc) promises readers, and what delta extraction
// reads the previous round from.
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
	// place) because published snapshots capture the slice.
	children []*trieNode
	// spans map PC ranges to children: a PC in [lo, lo+n) resolves to c's
	// edge. Live plane only — walks read and append them, seal, emit and
	// snapshot readers never do — so they grow in place.
	spans []span

	// snap is the node's published snapshot chain; snapBuf the two
	// rotating backing structs. See snapshot.go.
	snap    atomic.Pointer[nodeSnap]
	snapBuf [2]nodeSnap

	// Delta scratch (delta.go): the round-over-round XOR labels and the
	// per-tree child lists computed at seal time, read by the delta emit.
	// Single-buffered on purpose — the scratch is consumed by this round's
	// emit, which the engine retires before the next seal can overwrite
	// it, and walks never touch these fields.
	dAll, dLast       *bitvec.Vector
	dAllSet, dLastSet *bitvec.Set
	dAllOut, dLastOut bitvec.Label
	dKids, dLastKids  []*trieNode
}

// span is one PC range [lo, lo+n) whose frames all resolve to the edge c.
// n is the width rather than the end so that the membership test is one
// unsigned compare that also holds for a range ending at the top PC.
type span struct {
	lo, n uint64
	c     *trieNode
}

// childAt returns the child whose span holds pc, or nil when no span
// does (the walk then resolves pc and records its span).
func (n *trieNode) childAt(pc uint64) *trieNode {
	for i := range n.spans {
		if sp := &n.spans[i]; pc-sp.lo < sp.n {
			return sp.c
		}
	}
	return nil
}

// resolveChild is childAt's slow path: resolve pc, find or create the
// child for its name, and record the span so later PCs in the same range
// descend without the resolver.
func (w *walker) resolveChild(n *trieNode, pc uint64) *trieNode {
	id, name, lo, hi := w.cache.ResolveSpan(pc)
	c := n.child(id, name)
	if c == nil {
		c = w.newNode(id, name)
		n.insertChild(c)
	}
	n.spans = append(n.spans, span{lo: lo, n: hi - lo, c: c})
	return c
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
// captured by a published snapshot, so a sorted in-place shift would tear
// it. Novel edges only exist while the call-path population is still
// growing, so the copy is never on the steady-state path.
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
	n.spans = n.spans[:0]
	n.epochs[0], n.epochs[1] = 0, 0
	n.lastEpochs[0], n.lastEpochs[1] = 0, 0
	return n
}

// resetTrie drops every edge and span (recycling the nodes, labels
// attached, onto the free list). Run on a frame-granularity flip: IDs and
// spans from the plain and detailed caches mean different things, so a
// trie built under one cannot be probed under the other — the root's
// spans included, or the first frame of every stack would descend to a
// recycled node. A walk runs only after its walker's previous batch is
// released, so resetTrie never runs with a snapshot reader live.
func (w *walker) resetTrie() {
	var rec func(n *trieNode)
	rec = func(n *trieNode) {
		for _, c := range n.children {
			rec(c)
			w.free = append(w.free, c)
		}
		clear(n.children)
		n.children = n.children[:0]
		clear(n.spans)
		n.spans = n.spans[:0]
	}
	rec(&w.root)
	w.root.epochs[0], w.root.epochs[1] = 0, 0
	w.root.lastEpochs[0], w.root.lastEpochs[1] = 0, 0
}

// walk executes one round's sampling: every (rank, thread, sample) stack
// accumulates into the trie under the round's parity slot, and the walk's
// counts add to the engine's. It does not seal or emit — run seal and then
// emitTrees for the round's trees.
func (w *walker) walk(req Request) {
	cache := w.eng.plain
	if req.Detail {
		cache = w.eng.detail
	}
	if cache != w.cache {
		w.resetTrie()
		w.cache = cache
	}
	w.width = req.Width
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

	var sampled, resolved int64
	lastSample := req.Samples - 1
	for local, rank := range req.Ranks {
		idx := local
		if req.GlobalIndex {
			idx = rank
		}
		for thread := 0; thread < req.Threads; thread++ {
			for smp := 0; smp < req.Samples; smp++ {
				w.pcs = w.eng.app.AppendStackPCs(w.pcs[:0], rank, thread, req.Base+smp)
				sampled++
				last := req.Want2D && smp == lastSample

				// Descend by span. A node already stamped this round takes
				// its bit inline (the common case for every frame a
				// previous stack shared); touch runs only otherwise.
				n := r
				w.touch(n, idx, last)
				for _, pc := range w.pcs {
					c := n.childAt(pc)
					if c == nil {
						c = w.resolveChild(n, pc)
						resolved++
					}
					if !last && c.epochs[s] == w.epoch {
						c.all[s].Set(idx)
					} else {
						w.touch(c, idx, last)
					}
					n = c
				}
			}
		}
	}
	w.eng.sampled.Add(sampled)
	w.eng.resolved.Add(resolved)
}

// emitTrees adopts the sealed round's snapshot emission into the walker's
// reusable tree headers. Must run after seal.
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
