package trace

import (
	"stat/internal/bitvec"
)

// internLimit and internByteLimit cap the intern table by entry count and
// by total retained string bytes. Function namespaces are small and stable
// in practice; the caps only exist so a pathological stream of distinct
// names (fuzzing, a hostile peer — the wire allows 64 KiB per name) cannot
// grow a pooled table without bound. On overflow the table is cleared, not
// abandoned.
const (
	internLimit     = 1 << 16
	internByteLimit = 4 << 20
)

// internTable deduplicates function-name strings. Looking up a []byte key
// against the map allocates nothing on a hit, so at steady state — names
// repeat across every sibling subtree of a reduction — decoding a node's
// name is a map probe, not a string allocation.
type internTable struct {
	m     map[string]string
	bytes int
}

func newInternTable() internTable {
	return internTable{m: make(map[string]string)}
}

func (t *internTable) intern(b []byte) string {
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	if len(t.m) >= internLimit || t.bytes >= internByteLimit {
		clear(t.m)
		t.bytes = 0
	}
	s := string(b)
	t.m[s] = s
	t.bytes += len(s)
	return s
}

// Pin is the retain/release surface of a leased wire buffer (a
// tbon.Lease satisfies it). An aliasing decode retains the pin once per
// tree whose labels view the buffer and releases it when that tree is
// released, so the buffer provably outlives every label aliasing it.
type Pin interface {
	Retain()
	Release()
}

// nodeFreeListCap and treeFreeListCap bound the codec free lists; beyond
// them, released nodes and trees fall back to the shared pool / garbage
// collector so one giant decode cannot pin memory on a codec that then
// handles small packets forever.
const (
	nodeFreeListCap = 1 << 16
	treeFreeListCap = 64
)

// Codec bundles the reusable allocation state of wire decoding: an intern
// table for function names, a bitvec.Arena supplying decoded label
// storage, and free lists of recycled nodes and tree headers. A TBON
// merge filter decodes its children, merges them into its accumulator,
// encodes it and releases everything; with a Codec every side of that cycle
// reuses the same arena slabs, name strings, nodes and tree structs every
// invocation instead of reallocating per packet — Release fills the free
// lists, Decode and MergeConcat drain them, with no per-node trip
// through the shared sync.Pool and its synchronization. (The encode side
// needs no state: Tree.AppendBinaryV writes into any caller buffer,
// allocation-free when the buffer is pre-sized.)
//
// Lifecycle: every tree returned by Decode with this codec, or by
// MergeConcat, borrows the codec's arena. Tree.Release returns the borrow;
// when the last outstanding tree is released the arena recycles
// automatically. The caller must release every such tree before the codec
// may be shared onward (pooled, reused by another goroutine): Live
// reports the outstanding count.
//
// Concurrency: a Codec is single-goroutine state. Decoded trees may be read
// concurrently like any other tree, but its decodes, MergeConcat and the
// Release calls of the codec's trees must all happen on one goroutine at
// a time. Concurrent filter workers each take their own Codec (sync.Pool
// is the intended sharing mechanism).
type Codec struct {
	names internTable
	arena bitvec.Arena
	live  int
	nodes []*Node // free list: filled by Tree.Release, drained by decodes and merges
	trees []*Tree // free list of recycled tree headers
	cm    concatMerger
	// aliasHits / aliasMisses count labels a pinned (zero-copy) Decode
	// aliased in place versus copied because the alignment check failed. Single-
	// goroutine like the rest of the codec; see AliasStats.
	aliasHits   int64
	aliasMisses int64
	// labelStats accumulates the v3 container mix this codec decoded;
	// see LabelStats.
	labelStats LabelStats
}

// LabelStats is the per-container-kind breakdown of the v3 labels a
// codec has decoded: how many labels arrived as each container and the
// wire bytes (label3 header included) each kind contributed. All zero on
// a codec that has only seen dense (v1/v2) trees. Together with AliasStats it
// answers both halves of the v3 story: how much the adaptive containers
// compressed the stream, and whether the decode stayed zero-copy.
type LabelStats struct {
	Dense, Run, Array                int64
	DenseBytes, RunBytes, ArrayBytes int64
}

// note records one decoded v3 label from its wire kind byte.
func (s *LabelStats) note(kind byte, bytes int64) {
	switch kind {
	case 0:
		s.Dense++
		s.DenseBytes += bytes
	case 1:
		s.Run++
		s.RunBytes += bytes
	case 2:
		s.Array++
		s.ArrayBytes += bytes
	}
}

// Add accumulates o into s; the aggregation step tools use to fold
// per-codec stats into a session total.
func (s *LabelStats) Add(o LabelStats) {
	s.Dense += o.Dense
	s.Run += o.Run
	s.Array += o.Array
	s.DenseBytes += o.DenseBytes
	s.RunBytes += o.RunBytes
	s.ArrayBytes += o.ArrayBytes
}

// Sub returns s minus o — the delta between two snapshots of one codec.
func (s LabelStats) Sub(o LabelStats) LabelStats {
	return LabelStats{
		Dense: s.Dense - o.Dense, Run: s.Run - o.Run, Array: s.Array - o.Array,
		DenseBytes: s.DenseBytes - o.DenseBytes, RunBytes: s.RunBytes - o.RunBytes, ArrayBytes: s.ArrayBytes - o.ArrayBytes,
	}
}

// Labels reports the total container count across kinds.
func (s LabelStats) Labels() int64 { return s.Dense + s.Run + s.Array }

// Bytes reports the total label wire bytes across kinds.
func (s LabelStats) Bytes() int64 { return s.DenseBytes + s.RunBytes + s.ArrayBytes }

// LabelStats reports the v3 container mix decoded by this codec since
// creation. Counters accumulate for the life of the codec, like
// AliasStats.
func (c *Codec) LabelStats() LabelStats { return c.labelStats }

// NewCodec returns an empty codec.
func NewCodec() *Codec {
	c := &Codec{names: newInternTable()}
	c.cm.codec = c
	return c
}

// AliasStats reports how many labels this codec's pinned decodes viewed
// in place (hits) versus copied into the arena because the label's wire
// bytes failed the word-alignment check (misses). On a v2 (STR2) stream
// landing in an 8-aligned buffer the miss count stays zero; a nonzero
// count under v2 means the enclosing framing broke the alignment
// guarantee. Counters accumulate for the life of the codec.
func (c *Codec) AliasStats() (hits, misses int64) { return c.aliasHits, c.aliasMisses }

func (c *Codec) decode(b []byte, pin Pin, delta bool) (*Tree, error) {
	t, aliased, err := decodeTree(b, &c.names, &c.arena, nil, c, pin != nil, nil, delta)
	if err != nil {
		// A failed decode may have carved label storage before erroring;
		// reclaim it now if no live tree pins the arena. (Nodes built
		// before the error are dropped to the garbage collector.)
		if c.live == 0 {
			c.arena.Reset()
		}
		return nil, err
	}
	c.live++
	t.owner = c
	if aliased {
		pin.Retain()
		t.pin = pin
	}
	return t, nil
}

// MergeConcat merges child trees under the OPTIMIZED hierarchical
// representation: the output task space is the concatenation of the
// inputs' task spaces (in argument order), and a node's label is the
// concatenation of the children's labels, with zero bits for children
// lacking the node. No full-job-width vector is ever constructed below
// the front end. Parallel nodes combine by a k-way merge over the
// already-sorted Children slices, and labels are built by blitting whole
// source labels at precomputed bit offsets (see concatMerger).
//
// The output tree borrows the codec: labels are carved from the codec's
// arena, nodes and the tree header come from its free lists, and the tree
// must be Released (on the codec's goroutine) like a decoded tree. At steady state — the
// decode→merge→encode filter cycle on a warm codec — the merge performs
// no heap allocation at all. Inputs are only read; merging aliasing
// (read-only) trees is safe.
func (c *Codec) MergeConcat(trees ...*Tree) *Tree {
	total := 0
	if cap(c.cm.offsets) < len(trees) {
		c.cm.offsets = make([]int, len(trees))
	}
	offsets := c.cm.offsets[:len(trees)]
	for i, tr := range trees {
		offsets[i] = total
		total += tr.NumTasks
	}
	c.cm.offsets, c.cm.total = offsets, total
	if cap(c.cm.roots) < len(trees) {
		c.cm.roots = make([]*Node, len(trees))
	}
	roots := c.cm.roots[:len(trees)]
	for i, tr := range trees {
		roots[i] = tr.Root
	}
	root := c.cm.merge(roots, 0)
	t := c.getTree()
	t.NumTasks, t.Root = total, root
	c.live++
	t.owner = c
	return t
}

// NewTree returns an empty tree over n tasks that borrows the codec like
// a decoded tree; nodes MergeUnion or MergeXor add to it come from the
// codec too. It is an original-mode fold's mutable accumulator.
func (c *Codec) NewTree(n int) *Tree {
	t := c.getTree()
	t.NumTasks, t.Root = n, c.getNode(Frame{}, c.arena.New(n))
	c.live++
	t.owner = c
	return t
}

// Live reports how many trees handed out by this codec have not yet been
// released. The codec must not be handed to another user while Live is
// nonzero.
func (c *Codec) Live() int { return c.live }

func (c *Codec) noteRelease() {
	c.live--
	if c.live == 0 {
		c.arena.Reset()
	}
}

// getNode pops a recycled node from the codec free list, falling back to
// the shared pool. Free-list nodes, like pooled ones, keep their Children
// backing arrays, so steady-state decodes regrow nothing.
func (c *Codec) getNode(frame Frame, tasks bitvec.Label) *Node {
	if n := len(c.nodes); n > 0 {
		nd := c.nodes[n-1]
		c.nodes[n-1] = nil
		c.nodes = c.nodes[:n-1]
		nd.Frame = frame
		nd.Tasks = tasks
		return nd
	}
	return newNode(frame, tasks)
}

// getTree pops a recycled tree header, reset for reuse.
func (c *Codec) getTree() *Tree {
	if n := len(c.trees); n > 0 {
		t := c.trees[n-1]
		c.trees[n-1] = nil
		c.trees = c.trees[:n-1]
		*t = Tree{}
		return t
	}
	return &Tree{}
}

func (c *Codec) putTree(t *Tree) {
	if len(c.trees) < treeFreeListCap {
		c.trees = append(c.trees, t)
	}
}
