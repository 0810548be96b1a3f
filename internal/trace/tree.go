// Package trace implements STAT's call-graph prefix trees. A trace is one
// sampled call stack; the 2D (trace×space) tree merges one sample from every
// task, and the 3D (trace×space×time) tree merges all samples over time.
// Every tree node carries a task-set edge label; the width of those labels
// and the merge rule (union vs concatenation) is what distinguishes the
// paper's original and optimized representations (Section V).
//
// Trees are not internally synchronized, but the package keeps no mutable
// shared state: merge, serialization and traversal functions touch only
// their arguments, and output trees never share nodes with input trees.
// Concurrent TBON filter workers may therefore merge distinct trees in
// parallel without locking; only concurrent operations on the same tree
// need external synchronization. Node allocation draws from a shared pool
// (see Release) so the concurrent merge path stays allocation-cheap.
//
// Wire encode/decode state follows the same discipline. A Codec — intern
// table, label arena, node and tree free lists — is single-goroutine
// state: decodes through it, its MergeConcat, and the Release of its
// trees must be serial, so concurrent filter workers take one Codec each
// (typically via sync.Pool) rather than sharing one. The function-name
// strings a codec interns are immutable and may be shared freely across
// trees and goroutines; codec-less decodes draw their intern tables from
// an internal pool, which is why concurrent decodes of the same function
// namespace are safe yet still stop allocating name strings at steady
// state.
//
// # Wire formats
//
// Trees serialize in the 8-aligned v2 ("STR2") or the compressed-label v3
// ("STR3") format, specified field by field in serialize.go; encoders
// take an explicit version (Tree.AppendBinaryV). Which version a stream
// carries is negotiated by the protocol layer (package proto): the attach
// handshake picks the highest version both ends speak. Under v2's
// alignment guarantee the zero-copy decode below aliases every label, and
// v3's adaptive per-label containers (dense words, sorted run extents, or
// sorted member arrays, whichever encodes smallest; see bitvec.PutLabel3)
// keep per-node label bytes sublinear in job width for the run-structured
// populations prefix trees produce. v3 preserves v2's 8-alignment
// induction, so the two guarantees compose. The compact v1 ("STR1")
// layout of earlier builds is no longer written or spoken on the wire,
// but Decode still reads it, so saved v1 captures keep opening.
// Codec.AliasStats exposes the realized alias hit/miss counts and
// Codec.LabelStats the decoded v3 container mix.
//
// # Decoding and buffer lifetime
//
// Decode is the one decode entry point; DecodeOpts selects the shape. The
// zero options produce a tree that owns its storage. Remap fuses the
// front end's rank permutation into the decode, for a long-lived result
// in rank order. Codec draws storage from a codec (the filter hot path),
// and Pin adds the zero-copy decode: on little-endian hosts, labels whose
// wire bytes land 8-byte aligned become read-only views of the packet
// buffer instead of copies. Such a tree pins the buffer — the codec
// retains the Pin (a tbon.Lease in the reduction pipeline) once per
// aliasing tree and releases it from Tree.Release, so the buffer provably
// outlives every label that views it. Aliasing trees must be treated as
// immutable: mutating a label would scribble on the wire buffer. The
// copying codec decode has no such restriction and is what the in-place
// union merge of the original representation decodes its destination
// with; its sources may alias. Delta selects delta frames instead of
// whole trees and composes with every other option.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"stat/internal/bitvec"
)

// Frame is one entry of a call stack, outermost first in a Trace.
type Frame struct {
	Function string
}

// Trace is one sampled call stack for one task (or one thread of a task).
type Trace struct {
	// Task is the task index within the owning tree's task space: a daemon
	// building a subtree-local tree numbers its own tasks from zero.
	Task   int
	Frames []Frame
}

// Node is a prefix-tree node. The edge entering the node is labeled with
// the set of tasks whose call path includes the node. The label is either
// a dense *bitvec.Vector or a compressed (frozen) *bitvec.Set; trees built
// by Add and the copying decodes carry dense labels throughout, while the
// hierarchical merge and the v3 aliasing decode produce compressed labels
// where the population's run structure makes them smaller. Mutating paths
// (Add, MergeUnion) own dense labels by construction.
type Node struct {
	Frame    Frame
	Tasks    bitvec.Label
	Children []*Node // sorted by Frame.Function for deterministic traversal
}

// denseTasks returns a node label known to be mutable — the invariant on
// every mutating path. Compressed labels are frozen (see bitvec.Set) and
// only ever appear on read-only trees, so hitting one here is a bug.
func denseTasks(l bitvec.Label) *bitvec.Vector {
	v, ok := l.(*bitvec.Vector)
	if !ok {
		panic("trace: mutating a tree with compressed (frozen) labels")
	}
	return v
}

func (n *Node) child(name string) *Node {
	i := sort.Search(len(n.Children), func(i int) bool {
		return n.Children[i].Frame.Function >= name
	})
	if i < len(n.Children) && n.Children[i].Frame.Function == name {
		return n.Children[i]
	}
	return nil
}

func (n *Node) insertChild(c *Node) {
	i := sort.Search(len(n.Children), func(i int) bool {
		return n.Children[i].Frame.Function >= c.Frame.Function
	})
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
}

// Tree is a call-graph prefix tree over a task space of NumTasks indexes.
// The root is a sentinel (empty function name) whose label holds every task
// that has contributed at least one trace.
type Tree struct {
	NumTasks int
	Root     *Node
	// owner, when non-nil, is the Codec this tree borrows: Release
	// returns the nodes (and the Tree struct itself) to the codec's free
	// lists instead of the shared sync.Pool, and notifies the codec so it
	// can recycle the label arena once nothing borrows it.
	owner *Codec
	// pin, when non-nil, is the leased wire buffer an aliasing decode
	// left this tree's labels viewing; Release drops it last.
	pin Pin
	// released flips on Release so a second Release panics instead of
	// silently double-recycling nodes shared with a now-live tree.
	released bool
}

// NewTree returns an empty tree over a task space of n indexes.
func NewTree(n int) *Tree {
	if n < 0 {
		panic("trace: negative task-space size")
	}
	return &Tree{NumTasks: n, Root: newNode(Frame{}, bitvec.New(n))}
}

// Add merges one trace into the tree. Frames are outermost (e.g. _start)
// first. Adding the same trace twice is idempotent.
func (t *Tree) Add(tr Trace) {
	if tr.Task < 0 || tr.Task >= t.NumTasks {
		panic(fmt.Sprintf("trace: task %d out of range [0,%d)", tr.Task, t.NumTasks))
	}
	n := t.Root
	denseTasks(n.Tasks).Set(tr.Task)
	for _, f := range tr.Frames {
		c := n.child(f.Function)
		if c == nil {
			c = newNode(f, bitvec.New(t.NumTasks))
			n.insertChild(c)
		}
		denseTasks(c.Tasks).Set(tr.Task)
		n = c
	}
}

// AddStack is a convenience wrapper turning function names into a Trace.
func (t *Tree) AddStack(task int, funcs ...string) {
	frames := make([]Frame, len(funcs))
	for i, f := range funcs {
		frames[i] = Frame{Function: f}
	}
	t.Add(Trace{Task: task, Frames: frames})
}

// NodeCount reports the number of nodes excluding the sentinel root.
func (t *Tree) NodeCount() int {
	count := -1
	t.walk(func(*Node, int) { count++ })
	return count
}

// Depth reports the longest root-to-leaf path length (root excluded).
func (t *Tree) Depth() int {
	max := 0
	t.walk(func(_ *Node, d int) {
		if d > max {
			max = d
		}
	})
	return max
}

// walk visits every node pre-order with its depth (root depth 0).
func (t *Tree) walk(fn func(n *Node, depth int)) {
	var rec func(n *Node, d int)
	rec = func(n *Node, d int) {
		fn(n, d)
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	rec(t.Root, 0)
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	var rec func(n *Node) *Node
	rec = func(n *Node) *Node {
		c := newNode(n.Frame, n.Tasks.Clone())
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = rec(ch)
		}
		return c
	}
	return &Tree{NumTasks: t.NumTasks, Root: rec(t.Root)}
}

// Equal reports whether two trees have identical structure and labels.
func (t *Tree) Equal(o *Tree) bool {
	if t.NumTasks != o.NumTasks {
		return false
	}
	var rec func(a, b *Node) bool
	rec = func(a, b *Node) bool {
		if a.Frame != b.Frame || !bitvec.Equal(a.Tasks, b.Tasks) || len(a.Children) != len(b.Children) {
			return false
		}
		for i := range a.Children {
			if !rec(a.Children[i], b.Children[i]) {
				return false
			}
		}
		return true
	}
	return rec(t.Root, o.Root)
}

// Validate checks the structural invariants: labels have the tree's width,
// children are sorted and unique, and every child label is a subset of its
// parent's. It returns the first violation found.
func (t *Tree) Validate() error {
	var rec func(n *Node, path string) error
	rec = func(n *Node, path string) error {
		if n.Tasks.Len() != t.NumTasks {
			return fmt.Errorf("trace: node %q label width %d, tree width %d", path, n.Tasks.Len(), t.NumTasks)
		}
		for i, c := range n.Children {
			if i > 0 && n.Children[i-1].Frame.Function >= c.Frame.Function {
				return fmt.Errorf("trace: node %q children unsorted at %q", path, c.Frame.Function)
			}
			sub := c.Tasks.Clone()
			if err := sub.AndNotLabel(n.Tasks); err != nil {
				return err
			}
			if !sub.Empty() {
				return fmt.Errorf("trace: node %q/%q label not a subset of parent", path, c.Frame.Function)
			}
			if err := rec(c, path+"/"+c.Frame.Function); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(t.Root, "")
}

// newChild returns an empty node for a path t lacks, drawn from t's codec
// when it borrows one (Codec.NewTree).
func (t *Tree) newChild(frame Frame) *Node {
	if c := t.owner; c != nil {
		return c.getNode(frame, c.arena.New(t.NumTasks))
	}
	return newNode(frame, bitvec.New(t.NumTasks))
}

// MergeUnion merges src into dst under the ORIGINAL representation: both
// trees label edges with vectors spanning the same (full-job) task space,
// and matching nodes combine by set union. This is what every level of the
// unoptimized STAT analysis tree did, and why labels carried mostly zeros.
// Only dst is mutated; src is only read, so it may be an aliasing decode.
func MergeUnion(dst, src *Tree) error {
	if dst.NumTasks != src.NumTasks {
		return fmt.Errorf("trace: MergeUnion task-space mismatch %d vs %d", dst.NumTasks, src.NumTasks)
	}
	var rec func(d, s *Node) error
	rec = func(d, s *Node) error {
		if err := denseTasks(d.Tasks).UnionLabel(s.Tasks); err != nil {
			return err
		}
		for _, sc := range s.Children {
			dc := d.child(sc.Frame.Function)
			if dc == nil {
				dc = dst.newChild(sc.Frame)
				d.insertChild(dc)
			}
			if err := rec(dc, sc); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(dst.Root, src.Root)
}

// concatMerger carries Codec.MergeConcat's state: the per-input bit
// offsets and a per-depth scratch pool for the k-way walk (child cursors
// and the parallel-node slice passed to the next level), reused across
// every node at that depth. Labels are carved from the codec's arena and
// nodes are drawn from its free list, making the steady-state merge
// allocation-free; the codec keeps the merger alive across calls so the
// scratch stays warm.
type concatMerger struct {
	offsets []int
	total   int
	scratch []concatScratch
	codec   *Codec
	roots   []*Node // call-level scratch for Codec.MergeConcat
}

type concatScratch struct {
	cur []int   // next unconsumed child per part
	sub []*Node // parallel children handed to the recursive call
}

// buildLabel concatenates the parts' labels at the precomputed offsets,
// choosing the output representation adaptively: when the parts' total
// run count bounds the output under the dense footprint, the output is a
// compressed run set built by shifting each part's extents — interval
// arithmetic, never per-bit — with runs meeting exactly at a part
// boundary coalescing. Otherwise the output is a dense vector filled by
// word-level blits. Concatenation never splits a run, so the parts' total
// is a true upper bound and extent storage can be carved up front from
// the codec arena, keeping the cycle allocation-free once slabs are warm.
func (m *concatMerger) buildLabel(parts []*Node) (bitvec.Label, Frame) {
	var frame Frame
	runs := 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		frame = p.Frame
		_, r := p.Tasks.ContainerCounts()
		runs += r
	}
	if 8*runs < 8*((m.total+63)/64) {
		ext := m.codec.arena.GrabExtents(runs)[:0]
		for i, p := range parts {
			if p == nil {
				continue
			}
			ext = p.Tasks.AppendExtents(ext, m.offsets[i])
		}
		return m.codec.arena.NewRunSet(m.total, ext), frame
	}
	label := m.codec.arena.New(m.total)
	for i, p := range parts {
		if p == nil {
			continue
		}
		p.Tasks.BlitInto(label, m.offsets[i])
	}
	return label, frame
}

// merge combines parallel nodes: parts[i] is the node from input i, or nil
// when that input lacks the path. parts aliases the caller's depth-level
// scratch and is stable for the duration of the call.
func (m *concatMerger) merge(parts []*Node, depth int) *Node {
	label, frame := m.buildLabel(parts)
	n := m.codec.getNode(frame, label)

	if depth == len(m.scratch) {
		m.scratch = append(m.scratch, concatScratch{})
	}
	// A codec-held merger is reused across calls with varying input
	// counts; (re)size this depth's scratch to the current width.
	if cap(m.scratch[depth].cur) < len(m.offsets) {
		m.scratch[depth].cur = make([]int, len(m.offsets))
		m.scratch[depth].sub = make([]*Node, len(m.offsets))
	}
	cur := m.scratch[depth].cur[:len(m.offsets)]
	sub := m.scratch[depth].sub[:len(m.offsets)]
	for i := range cur {
		cur[i] = 0
	}

	// k-way merge: repeatedly take the smallest unconsumed child name
	// across the parts and recurse on the parallel children carrying it.
	// Children slices are sorted, so this visits names in sorted order
	// and each child exactly once.
	for {
		minName := ""
		found := false
		for i, p := range parts {
			if p == nil || cur[i] >= len(p.Children) {
				continue
			}
			if name := p.Children[cur[i]].Frame.Function; !found || name < minName {
				minName, found = name, true
			}
		}
		if !found {
			break
		}
		for i, p := range parts {
			sub[i] = nil
			if p == nil || cur[i] >= len(p.Children) {
				continue
			}
			if c := p.Children[cur[i]]; c.Frame.Function == minName {
				sub[i] = c
				cur[i]++
			}
		}
		n.Children = append(n.Children, m.merge(sub, depth+1))
	}
	return n
}

// String renders the tree as an indented outline with edge labels, useful
// in tests and the CLI.
func (t *Tree) String() string {
	var sb strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		if depth > 0 {
			sb.WriteString(strings.Repeat("  ", depth-1))
			fmt.Fprintf(&sb, "%s %s\n", n.Frame.Function, n.Tasks)
		}
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	return sb.String()
}
