package sample

import (
	"slices"
	"sort"

	"stat/internal/bitvec"
	"stat/internal/stackwalk"
	"stat/internal/trace"
)

// walker is one pooled daemon-walk state: the persistent trie, the PC
// scratch buffer, and the reusable tree headers. At any instant a walker
// has exactly one owner — the Sample/SampleKeyed caller that checked it
// out — and every field, the trie included, is read and written only by
// that owner.
type walker struct {
	eng   *Engine
	cache *stackwalk.Cache
	width int
	// epoch advances per round; trie labels reset lazily on first touch of
	// the round, so stale branches cost nothing. The epoch's parity selects
	// which accumulator slot the round writes (slot), leaving the other
	// slot — the previous round's sealed labels — untouched for delta
	// extraction.
	epoch uint64
	slot  int

	// sealed is the epoch of the last seal; sealedWidth its task-space
	// width. Emits read these rather than the live epoch/width.
	sealed      uint64
	sealedWidth int

	root trieNode
	free []*trieNode // recycled trie nodes (after a granularity flip)

	pcs []uint64
	// path is the previous stack's descent: path[i] is the span taken
	// out of the depth-i node. The next stack follows it while its PCs
	// stay inside those spans. A stack that ends inside the path leaves
	// the deeper entries in place; they still continue the same chain.
	// Cleared at the start of every walk, so every node it leads to is
	// stamped into the current round.
	path []span
	// words lists, ascending and without repeats, the label words the
	// round's task indexes occupy — the only words seal's child-to-parent
	// fold has to OR. spare keeps the previous list's storage.
	words, spare []uint32
	// wordsGen advances whenever a round's word list differs from the
	// last one's (pooled walkers serve daemons with different lists).
	wordsGen uint64

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
// Every label accumulator is double-buffered by round parity: round N
// writes slot N&1 while slot (N-1)&1 keeps round N-1's sealed labels. A
// slot's contents are therefore unchanged from the moment its round is
// sealed until the walk two rounds later — what emitted trees alias and
// what delta extraction reads the previous round from.
type trieNode struct {
	name string
	id   uint32
	// all accumulates every sample's tasks; last only the final sample's
	// (the 2D tree). Valid only at their slot's epoch stamps. During the
	// walk a node holds only the tasks whose stacks end on it; seal ORs
	// each child's label into its parent, so a sealed label is the node's
	// own ends plus its children's labels: every task whose stack passes
	// through the edge. epochs stamps every node a stack of the round
	// passed; lastEpochs the nodes of the 2D view — where a last-sample
	// stack ended at walk time, and their ancestors at seal.
	all        [2]*bitvec.Vector
	last       [2]*bitvec.Vector
	epochs     [2]uint64
	lastEpochs [2]uint64
	// allGen / lastGen are the wordsGen each slot was last reset under.
	allGen, lastGen [2]uint64
	// allSet / lastSet cache the frozen compressed views built at seal
	// under Request.Compress; CompressVector rebuilds a slot's set in
	// place every other round, reusing its extent storage, so compression
	// allocates nothing at steady state. allPacked / lastPacked record
	// whether the slot's sealed label is that set rather than the dense
	// accumulator.
	allSet     [2]*bitvec.Set
	lastSet    [2]*bitvec.Set
	allPacked  [2]bool
	lastPacked [2]bool
	// children grow in place, sorted by name. A child stays in the array
	// once inserted; seal, emit and delta extraction pick the ones of a
	// round by its epoch stamps.
	children []*trieNode
	// spans map PC ranges to children: a PC in [lo, lo+n) resolves to c's
	// edge. Only walks read and append them.
	spans []span

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

// childSpan returns n's span holding pc. When no span does, it resolves
// pc, finds or creates the child for its name, and records the span so
// later PCs in the same range descend without the resolver; resolved
// reports that slow path.
func (w *walker) childSpan(n *trieNode, pc uint64) (sp span, resolved bool) {
	for _, sp := range n.spans {
		if pc-sp.lo < sp.n {
			return sp, false
		}
	}
	id, name, lo, hi := w.cache.ResolveSpan(pc)
	c := n.child(id, name)
	if c == nil {
		c = w.newNode(id, name)
		i := sort.Search(len(n.children), func(i int) bool {
			return n.children[i].name >= name
		})
		n.children = slices.Insert(n.children, i, c)
	}
	sp = span{lo: lo, n: hi - lo, c: c}
	n.spans = append(n.spans, sp)
	return sp, true
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

// stamp marks n as part of the current round, lazily resetting its
// round-parity all slot on the round's first touch.
func (w *walker) stamp(n *trieNode) {
	s := w.slot
	if n.epochs[s] == w.epoch {
		return
	}
	n.epochs[s] = w.epoch
	n.all[s] = w.resetLabel(n.all[s], &n.allGen[s])
}

// stampLast marks n as part of the current round's 2D view, lazily
// resetting its last slot.
func (w *walker) stampLast(n *trieNode) {
	s := w.slot
	if n.lastEpochs[s] == w.epoch {
		return
	}
	n.lastEpochs[s] = w.epoch
	n.last[s] = w.resetLabel(n.last[s], &n.lastGen[s])
}

// resetLabel clears a label slot, allocating it on first use. Walks and
// seal write only the round's words, so a slot last reset under the same
// word list and width is cleared over those words alone (128 of 3,328 on
// a round-robin 208K daemon); any other is cleared whole.
func (w *walker) resetLabel(v *bitvec.Vector, gen *uint64) *bitvec.Vector {
	switch {
	case v == nil:
		v = bitvec.New(w.width)
	case *gen == w.wordsGen && v.Len() == w.width:
		v.ClearWords(w.words)
	default:
		v.Reset(w.width)
	}
	*gen = w.wordsGen
	return v
}

// newNode draws a trie node from the free list or the heap.
func (w *walker) newNode(id uint32, name string) *trieNode {
	var n *trieNode
	if k := len(w.free); k > 0 {
		n = w.free[k-1]
		w.free[k-1] = nil
		w.free = w.free[:k-1]
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
// released, so no emitted tree still aliases a recycled node's labels.
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
// descends the trie under the round's parity slot, stamping the nodes it
// passes and setting its task bit on the node where it ends, and the
// walk's counts add to the engine's. It does not seal or emit — run seal,
// which folds the end bits up into full labels, and then emitTrees.
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
	w.setWords(req)

	// The root participates in every trace (its label is every
	// contributing task) and must exist even for an empty round, exactly
	// like trace.NewTree's sentinel.
	r := &w.root
	s := w.slot
	w.stamp(r)
	if req.Want2D {
		w.stampLast(r)
	}

	var sampled, resolved int64
	lastSample := req.Samples - 1
	path := w.path[:0]
	for local, rank := range req.Ranks {
		idx := local
		if req.GlobalIndex {
			idx = rank
		}
		for thread := 0; thread < req.Threads; thread++ {
			for smp := 0; smp < req.Samples; smp++ {
				w.pcs = w.eng.app.AppendStackPCs(w.pcs[:0], rank, thread, req.Base+smp)
				sampled++

				// Follow the previous stack's path while the PCs stay in
				// its spans. Every span of a node holding a PC leads to
				// the child that PC resolves to, so a hit is exactly the
				// child the span search would find, and already stamped.
				pcs := w.pcs
				n := r
				d := 0
				for ; d < len(pcs) && d < len(path); d++ {
					sp := &path[d]
					if pcs[d]-sp.lo >= sp.n {
						break
					}
					n = sp.c
				}
				// Past the first miss, search the spans, stamp, and
				// rewrite the path from there.
				if d < len(pcs) {
					path = path[:d]
					for _, pc := range pcs[d:] {
						sp, res := w.childSpan(n, pc)
						if res {
							resolved++
						}
						n = sp.c
						w.stamp(n)
						path = append(path, sp)
					}
				}
				n.all[s].Set(idx)
				if req.Want2D && smp == lastSample {
					w.stampLast(n)
					n.last[s].Set(idx)
				}
			}
		}
	}
	w.path = path
	w.eng.sampled.Add(sampled)
	w.eng.resolved.Add(resolved)
}

// setWords builds the round's label word list from its task indexes.
// Consecutive indexes share a word, so dropping repeats of the previous
// entry keeps the list (and its storage) at the distinct-word count for
// both local and round-robin global ranks; a sort and compaction handle
// any other order.
func (w *walker) setWords(req Request) {
	words := w.spare[:0]
	for local, rank := range req.Ranks {
		idx := local
		if req.GlobalIndex {
			idx = rank
		}
		wd := uint32(idx >> 6)
		if k := len(words); k == 0 || words[k-1] != wd {
			words = append(words, wd)
		}
	}
	if !slices.IsSorted(words) {
		slices.Sort(words)
		words = slices.Compact(words)
	}
	if w.wordsGen == 0 || !slices.Equal(words, w.words) {
		w.wordsGen++
	}
	w.words, w.spare = words, w.words
}

// emitTrees adopts the sealed round's emission into the walker's reusable
// tree headers. Must run after seal.
func (w *walker) emitTrees(req Request) {
	if req.Want3D {
		w.t3h.AdoptRoot(w.sealedWidth, w.emitTree(false))
	}
	if req.Want2D {
		w.t2h.AdoptRoot(w.sealedWidth, w.emitTree(true))
	}
}
