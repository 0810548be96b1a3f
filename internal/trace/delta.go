package trace

import (
	"errors"
	"fmt"

	"stat/internal/bitvec"
)

// Delta frames: the streaming temporal mode's wire unit. A delta frame is
// a Tree whose labels are round-over-round XOR sets rather than task
// sets — see the "Delta frames" section of the wire format specification
// in serialize.go for the byte layout ("STD2"/"STD3") and the canonical
// rules, and ApplyDelta below for the fold semantics. Everything else
// about a delta frame — node structure, label containers, the codec and
// pool lifecycle — is shared with whole trees on purpose: the interior
// merge concatenates XOR labels with the same MergeConcat kernel, and the
// encode/decode paths reuse the label3 container machinery so a sparse
// change set travels as a run or array container a few bytes long.
// Decode with DecodeOpts.Delta reads a frame; with Remap as well, the
// front end's rank remap is fused in — XOR is linear, so remapping a
// delta's labels and then folding equals folding in concat order and
// remapping the result, which is why the front end folds remapped deltas
// straight into its rank-ordered live tree.

// ApplyDelta folds a delta frame into the live tree in place:
//
//	for every delta node, aligned by path:  live label ^= XOR label
//	paths the live tree lacks are created (their labels start empty, so
//	  the XOR writes the new node's full label)
//	nodes whose labels fold to empty are deleted (a removed node's XOR
//	  is its old label, so the toggle clears it)
//
// Applied to round N−1's live tree, a round-N delta frame yields exactly
// round N's tree — and because XOR is an involution, applying the same
// frame twice is the identity, which the differential suite exploits.
//
// The live tree must own mutable dense labels (decoded by copying or
// fused remap; aliased/compressed trees are rejected by denseTasks's
// panic contract — use a copying decode for the resident tree). The
// delta's labels may be any representation. On error the live tree may be
// partially folded and must be discarded; errors only arise from corrupt
// or mismatched frames (width mismatch, a fold that empties a node which
// still has live descendants, a descend into a path the live tree lacks).
// ApplyDelta is the steady-state hot path of a streaming front end, so the
// label-only fold (structure unchanged — the quiescent-round shape) runs
// allocation-free: the recursion is a plain function, not a closure, and
// error paths name the offending node instead of building path strings.
func ApplyDelta(live, delta *Tree) error {
	if live.NumTasks != delta.NumTasks {
		return fmt.Errorf("trace: delta width %d, live tree width %d", delta.NumTasks, live.NumTasks)
	}
	if live.released || delta.released {
		return errors.New("trace: ApplyDelta on a released tree")
	}
	return applyDeltaNode(live, live.Root, delta.Root)
}

func applyDeltaNode(live *Tree, ln, dn *Node) error {
	if err := denseTasks(ln.Tasks).XorLabel(dn.Tasks); err != nil {
		return err
	}
	for _, dc := range dn.Children {
		name := dc.Frame.Function
		lc := ln.child(name)
		if lc == nil {
			lc = newNode(dc.Frame, bitvec.New(live.NumTasks))
			ln.insertChild(lc)
		}
		if err := applyDeltaNode(live, lc, dc); err != nil {
			return err
		}
		if denseTasks(lc.Tasks).Empty() {
			// The node's tasks all left this path. Its subtree must be
			// gone too — child labels are subsets of their parent's —
			// so a surviving descendant means the frame is corrupt.
			if len(lc.Children) != 0 {
				return fmt.Errorf("trace: delta empties node %q but leaves it descendants", name)
			}
			ln.removeChild(name)
			recycleNodes(lc, live.owner)
		}
	}
	return nil
}

// removeChild deletes the named child from n's sorted Children slice,
// keeping the backing array (the slot is nilled so the dropped node is
// not retained). The caller owns recycling the removed node.
func (n *Node) removeChild(name string) {
	for i, c := range n.Children {
		if c.Frame.Function == name {
			copy(n.Children[i:], n.Children[i+1:])
			n.Children[len(n.Children)-1] = nil
			n.Children = n.Children[:len(n.Children)-1]
			return
		}
	}
}

// MergeXor merges delta frame src into delta frame dst under the ORIGINAL
// representation: both frames label nodes with XOR sets spanning the same
// full-job task space, and matching nodes combine by XOR. Daemons own
// disjoint rank sets, so in practice the combine is a disjoint union —
// but XOR is used (not OR) because it is the operation that commutes with
// the fold: fold(dst ⊕ src) = fold(dst) then fold(src), even if change
// sets ever overlapped. Nodes whose labels cancel to empty and have no
// surviving children are pruned, preserving the canonical delta form.
// dst must own mutable dense labels (NewTree, Codec.NewTree or a copying
// decode); src is only read, so it may be an aliasing decode.
func MergeXor(dst, src *Tree) error {
	if dst.NumTasks != src.NumTasks {
		return fmt.Errorf("trace: MergeXor task-space mismatch %d vs %d", dst.NumTasks, src.NumTasks)
	}
	var rec func(d, s *Node) error
	rec = func(d, s *Node) error {
		if err := denseTasks(d.Tasks).XorLabel(s.Tasks); err != nil {
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
			if len(dc.Children) == 0 && denseTasks(dc.Tasks).Empty() {
				d.removeChild(sc.Frame.Function)
				recycleNodes(dc, dst.owner)
			}
		}
		return nil
	}
	return rec(dst.Root, src.Root)
}
