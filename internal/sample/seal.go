package sample

import (
	"stat/internal/bitvec"
	"stat/internal/trace"
)

// seal completes the round just walked: it folds the end-node bits up
// into full labels, freezes them (compressed under Request.Compress), and
// records the sealed epoch and width for the emits that follow. seal must
// run on the walker's owning goroutine between the round's walk and the
// start of the next one.
func (w *walker) seal(req Request) {
	prev, prevReq := w.sealed, w.prevSealReq
	w.sealed = w.epoch
	w.sealedWidth = w.width
	w.prevSealReq = req
	w.sealNode(&w.root, req.Want2D, req.Compress)
	// Delta extraction (delta.go) rides the seal: it needs the previous
	// round's parity slot, which the *next* walk will overwrite, so this
	// is the only place the two-round XOR can be computed. Valid only
	// against an immediately preceding seal of compatible shape — a walker
	// fresh from the pool or a shape change fall back to whole-tree
	// emission via deltaOK=false.
	w.deltaOK = req.Delta && prev != 0 && prev == w.epoch-1 && deltaCompatible(prevReq, req)
	if w.deltaOK {
		w.sealDelta(req)
		w.eng.deltas.Add(1)
	}
	w.eng.sealed.Add(1)
}

// sealNode seals one node after its children (post-order). Each child
// touched this round is sealed first and then ORed into n — over the
// round's label words only — and a child in the 2D view stamps n into it
// too. A node untouched this round is pruned with its whole subtree:
// stacks stamp every node they pass, so an untouched node cannot have
// touched descendants.
func (w *walker) sealNode(n *trieNode, want2D, compress bool) {
	s := w.slot
	for _, c := range n.children {
		if c.epochs[s] != w.epoch {
			continue
		}
		w.sealNode(c, want2D, compress)
		n.all[s].UnionWords(c.all[s], w.words)
		if want2D && c.lastEpochs[s] == w.epoch {
			w.stampLast(n)
			n.last[s].UnionWords(c.last[s], w.words)
		}
	}
	n.allPacked[s] = compress && packLabel(n.all[s], &n.allSet[s])
	n.lastPacked[s] = compress && want2D && n.lastEpochs[s] == w.epoch &&
		packLabel(n.last[s], &n.lastSet[s])
}

// packLabel freezes v's compressed view into *set (reusing its storage)
// and reports whether it is the smaller form; dense stays otherwise.
func packLabel(v *bitvec.Vector, set **bitvec.Set) bool {
	c := bitvec.CompressVector(v, *set)
	if c == nil {
		return false
	}
	*set = c
	return true
}

// emitTree converts the sealed round into pooled trace nodes — the tree
// the gather reply serializes. It reads the sealed parity slot, whose
// labels stay unchanged until the walk two rounds later, and keeps the
// children stamped into the sealed round (its 2D view for last).
func (w *walker) emitTree(last bool) *trace.Node {
	return emitNode(&w.root, int(w.sealed&1), w.sealed, last)
}

func emitNode(n *trieNode, s int, epoch uint64, last bool) *trace.Node {
	var label bitvec.Label = n.all[s]
	switch {
	case last && n.lastPacked[s]:
		label = n.lastSet[s]
	case last:
		label = n.last[s]
	case n.allPacked[s]:
		label = n.allSet[s]
	}
	out := trace.NewPooledNode(trace.Frame{Function: n.name}, label)
	for _, c := range n.children {
		if c.epochs[s] != epoch || (last && c.lastEpochs[s] != epoch) {
			continue
		}
		out.Children = append(out.Children, emitNode(c, s, epoch, last))
	}
	return out
}
