package trace

import (
	"sync"

	"stat/internal/bitvec"
)

// nodePool recycles prefix-tree nodes. A TBON merge filter decodes its
// child trees, merges them, serializes the result and drops every
// intermediate tree — at a few hundred nodes per tree and one filter call
// per interior overlay node, allocation is the dominant cost of the merge
// path. The pool is shared by every tree and safe for concurrent filter
// workers; recycled nodes keep their Children backing array, so a
// steady-state filter reuses child slices instead of regrowing them.
// Codec-owned trees bypass this pool entirely: their nodes cycle through
// the codec's single-goroutine free list (filled by Release, drained by
// codec decodes and MergeConcat), so the filter hot path pays no per-node
// synchronization at all; the shared pool is the overflow and the home of
// every tree built outside a codec.
var nodePool = sync.Pool{New: func() any { return new(Node) }}

// newNode returns a pooled node initialized with the given frame and
// label and no children.
func newNode(frame Frame, tasks bitvec.Label) *Node {
	n := nodePool.Get().(*Node)
	n.Frame = frame
	n.Tasks = tasks
	return n
}

// nodeBatch allocates nodes from geometrically growing slabs. It serves
// decode paths whose trees are expected to outlive the call (the
// package-level UnmarshalBinary), where slab locality and one allocation
// per batch beat per-node pool misses. The filter cycle — decode, merge,
// release, repeat — goes through the owning codec's free list instead,
// because released nodes return with warm Children capacity that slab
// nodes lack.
// Releasing a slab-built tree is still safe: its nodes individually enter
// the pool like any others.
type nodeBatch struct {
	slab []Node
	size int
}

// get returns an initialized node from the batch, or from the shared pool
// when b is nil.
func (b *nodeBatch) get(frame Frame, tasks bitvec.Label) *Node {
	if b == nil {
		return newNode(frame, tasks)
	}
	if len(b.slab) == 0 {
		switch {
		case b.size == 0:
			b.size = 32
		case b.size < 1024:
			b.size *= 2
		}
		b.slab = make([]Node, b.size)
	}
	n := &b.slab[0]
	b.slab = b.slab[1:]
	n.Frame = frame
	n.Tasks = tasks
	return n
}

// Release returns every node of the tree to its allocation pool — the
// owning codec's free list for codec-built trees, the shared sync.Pool
// otherwise — and clears the tree. The caller must own the tree outright:
// none of its nodes may be shared with a live tree (the merge functions
// never share nodes between input and output, so releasing a filter's
// decoded inputs and encoded output is safe). Using the tree after
// Release is a bug; releasing it twice panics with a diagnostic, because
// a double release would hand nodes now owned by a live tree back to the
// allocator and corrupt whatever gets them next.
//
// A tree decoded by a Codec additionally returns its borrowed label
// storage to the codec's arena, and a tree decoded with
// a Pin drops its pin on the leased wire buffer (see the
// Codec lifecycle notes); releasing such a tree on a goroutine other than
// the codec's is a data race.
func (t *Tree) Release() {
	if t.released {
		panic("trace: Tree.Release called twice (double release of a tree, or use of a released tree)")
	}
	t.released = true
	if t.Root != nil {
		recycleNodes(t.Root, t.owner)
		t.Root = nil
	}
	if t.pin != nil {
		p := t.pin
		t.pin = nil
		p.Release()
	}
	if t.owner != nil {
		o := t.owner
		t.owner = nil
		o.noteRelease()
		o.putTree(t)
	}
}

// recycleNodes is the one clear-and-recycle walk behind every release
// path: each node is stripped of its payload (keeping the Children
// backing array warm) and pushed to the owning codec's free list when
// owner is non-nil — falling back to the shared pool when the list is
// full — or straight to the shared pool otherwise.
func recycleNodes(root *Node, owner *Codec) {
	var rec func(n *Node)
	rec = func(n *Node) {
		for _, c := range n.Children {
			rec(c)
		}
		n.Frame = Frame{}
		n.Tasks = nil
		for i := range n.Children {
			n.Children[i] = nil
		}
		n.Children = n.Children[:0]
		if owner != nil && len(owner.nodes) < nodeFreeListCap {
			owner.nodes = append(owner.nodes, n)
		} else {
			nodePool.Put(n)
		}
	}
	rec(root)
}
