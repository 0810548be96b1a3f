package sample

import (
	"stat/internal/bitvec"
	"stat/internal/trace"
)

// Delta extraction: the daemon-side producer of the streaming mode's
// delta frames (trace.ApplyDelta, wire magics "STD2"/"STD3"). When a
// round is sealed with Request.Delta set and the previous seal on the
// same walker was the immediately preceding epoch under a compatible
// request shape, sealDelta walks the trie once more and computes, per
// node, the XOR of the node's round-N and round-N−1 labels:
//
//	node in both rounds   → label_N ^ label_N−1 (empty when unchanged)
//	node new in round N   → label_N   (XOR from zero = the full label)
//	node gone in round N  → label_N−1 (XOR to zero = the removal toggle)
//	node in neither round → absent (with its whole subtree — touches run
//	                        root-to-leaf, so neither round saw below it)
//
// A node is included in the delta tree iff its own XOR is nonempty or a
// descendant's is (the root is always included, so a no-change round is
// a root-only empty frame — the canonical "nothing changed"). The
// results land in single-buffered per-node scratch (trieNode.dAll…):
// the XOR vectors, the outgoing labels (compressed under
// Request.Compress exactly like whole-tree seals), and the precomputed
// per-tree child lists. emitDeltaTrees then builds trace trees from the
// scratch alone — it never reads the live children arrays or
// accumulator slots.
//
// Why seal time, not emit time: round N−1's accumulator slot is parity
// slot (N−1)&1 == (N+1)&1, which the *next* round's walk overwrites.
// Inside seal the next walk has not started, so both slots are stable
// and the two-round XOR is computed from them directly. The
// single-buffered scratch is then valid until the next seal — one round,
// strictly shorter than the two-seal lifetime of whole-tree labels,
// and exactly the window the engine gives a batch (encode, then Release,
// before the next round).

// deltaCompatible reports whether two consecutively sealed requests
// describe XOR-comparable rounds: same task-space shape and the same
// tree views. Samples, Threads and Base vary freely round to round (the
// accumulators always hold full task labels), as does Compress (it only
// shapes the frozen compressed views, never the accumulator vectors).
func deltaCompatible(a, b Request) bool {
	if a.GlobalIndex != b.GlobalIndex || a.Width != b.Width ||
		a.Detail != b.Detail || a.Want2D != b.Want2D || a.Want3D != b.Want3D ||
		len(a.Ranks) != len(b.Ranks) {
		return false
	}
	for i, r := range a.Ranks {
		if r != b.Ranks[i] {
			return false
		}
	}
	return true
}

// sealDelta computes the round-over-round delta into the trie's scratch
// fields. Must run inside seal (on the owning goroutine) with
// w.epoch the just-walked round and w.epoch−1 the previous sealed one.
func (w *walker) sealDelta(req Request) {
	s := w.slot
	w.deltaNode(&w.root, s, s^1, req, true)
}

// deltaNode computes one node's XOR labels and child lists, recursing
// into every child present in either round. Returns whether the node
// belongs in the 3D and 2D delta trees; isRoot forces label
// finalization so the always-included root carries a valid (possibly
// empty) label even on a no-change round.
func (w *walker) deltaNode(n *trieNode, s, p int, req Request, isRoot bool) (has3, has2 bool) {
	e := w.epoch
	inN := n.epochs[s] == e
	inP := n.epochs[p] == e-1
	if !inN && !inP {
		return false, false
	}

	if n.dAll == nil {
		n.dAll = bitvec.New(w.width)
	} else {
		n.dAll.Reset(w.width)
	}
	if inN {
		xorAccum(n.dAll, n.all[s])
	}
	if inP {
		xorAccum(n.dAll, n.all[p])
	}
	own3 := !n.dAll.Empty()

	own2 := false
	if req.Want2D {
		if n.dLast == nil {
			n.dLast = bitvec.New(w.width)
		} else {
			n.dLast.Reset(w.width)
		}
		if inN && n.lastEpochs[s] == e {
			xorAccum(n.dLast, n.last[s])
		}
		if inP && n.lastEpochs[p] == e-1 {
			xorAccum(n.dLast, n.last[p])
		}
		own2 = !n.dLast.Empty()
	}

	// The children array is a superset of both rounds' structure (it
	// only ever grows): round-N inserts are in it, and a subtree that
	// vanished in round N is still present with its round-N−1 stamps,
	// which is exactly how removals recurse.
	n.dKids = n.dKids[:0]
	n.dLastKids = n.dLastKids[:0]
	for _, c := range n.children {
		c3, c2 := w.deltaNode(c, s, p, req, false)
		if c3 {
			n.dKids = append(n.dKids, c)
		}
		if c2 {
			n.dLastKids = append(n.dLastKids, c)
		}
	}

	has3 = own3 || len(n.dKids) > 0
	has2 = own2 || len(n.dLastKids) > 0
	if has3 || isRoot {
		var out bitvec.Label = n.dAll
		if req.Compress {
			if set := bitvec.CompressVector(n.dAll, n.dAllSet); set != nil {
				n.dAllSet = set
				out = set
			}
		}
		n.dAllOut = out
	}
	if req.Want2D && (has2 || isRoot) {
		var out bitvec.Label = n.dLast
		if req.Compress {
			if set := bitvec.CompressVector(n.dLast, n.dLastSet); set != nil {
				n.dLastSet = set
				out = set
			}
		}
		n.dLastOut = out
	}
	return has3, has2
}

// xorAccum folds src into dst; widths are equal by construction (dst
// was just reset to the round's width and every accumulator of the two
// compatible rounds was reset to the same width), so an error here is a
// walker invariant violation, not an input condition.
func xorAccum(dst, src *bitvec.Vector) {
	if err := dst.XorWith(src); err != nil {
		panic("sample: delta scratch width mismatch: " + err.Error())
	}
}

// emitDeltaTrees adopts the sealed round's delta into the walker's
// reusable delta tree headers. Must run after a seal that extracted a
// delta (walker.deltaOK); reads only the delta scratch.
func (w *walker) emitDeltaTrees(req Request) {
	if req.Want3D {
		w.d3h.AdoptRoot(w.sealedWidth, emitDelta(&w.root, false))
	}
	if req.Want2D {
		w.d2h.AdoptRoot(w.sealedWidth, emitDelta(&w.root, true))
	}
}

func emitDelta(n *trieNode, last bool) *trace.Node {
	label, kids := n.dAllOut, n.dKids
	if last {
		label, kids = n.dLastOut, n.dLastKids
	}
	out := trace.NewPooledNode(trace.Frame{Function: n.name}, label)
	for _, c := range kids {
		out.Children = append(out.Children, emitDelta(c, last))
	}
	return out
}
