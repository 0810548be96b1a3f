package sample

import (
	"stat/internal/bitvec"
	"stat/internal/trace"
)

// This file implements the epoch-stamped atomic trie snapshot that the
// emitted trees read: the same atomic-copy discipline as stackwalk.Cache's
// lock-free read path (immutable versions behind atomic pointers; readers
// validate and retry instead of locking), applied to a structure that
// mutates every round instead of growing monotonically.
//
// Mechanism. Each trie node owns two nodeSnap structs (snapBuf) rotating
// by round parity, published through an atomic pointer (snap) as an
// intrusive two-deep version chain: head is the most recent seal, prev
// the one before it. seal(N) fills snapBuf[N&1] — labels frozen from the
// round's accumulator slot, children captured as the copy-on-write array
// version of the moment — links prev to the old head, and Store-publishes
// it. Nothing in a published nodeSnap is ever mutated until the seal two
// rounds later reclaims the struct, so a reader that reaches a nodeSnap
// through the atomic pointer reads immutable memory under the
// happens-before edge the Store/Load pair provides.
//
// Torn reads. A reader wants a specific sealed epoch. If a later seal
// raced it (head.epoch > want), the read is torn: the reader retries one
// hop down the chain, where the wanted version is still pinned, and the
// engine counts the retry (Stats.SnapshotTornReads). The chain is two
// deep, so the guarantee is exactly: a sealed snapshot stays readable
// until the *second* subsequent seal. The engine itself emits every round
// before its walker walks again, so in production the hop never fires;
// the race-stress tests drive walkers harder to exercise it.

// nodeSnap is one published, immutable per-node snapshot version.
type nodeSnap struct {
	epoch uint64
	// all / last are the sealed round's frozen labels: the slot's
	// accumulator vector, or its compressed set when the round requested
	// compression and the population's structure beat dense. last is nil
	// when the node was not in the round's 2D view.
	all  bitvec.Label
	last bitvec.Label
	// children is the node's copy-on-write child array as of the seal.
	// Later inserts replace the node's live array and cannot touch this
	// one. Children from older rounds are filtered by their own snapshot
	// epochs at emit.
	children []*trieNode
	// prev pins the previous published version for torn-read recovery.
	prev *nodeSnap
}

// seal publishes the snapshot of the round just walked: every touched
// node's labels and structure become reachable through the atomic
// pointers, and the walker records the sealed epoch and width for the
// emits that follow. seal must run on the walker's owning goroutine
// between the round's walk and the start of the next one.
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
	w.eng.snapshots.Add(1)
}

// sealNode publishes one node and recurses into the children touched this
// round. A node untouched this round is pruned with its whole subtree:
// touches happen along root-to-leaf paths, so an untouched node cannot
// have touched descendants.
func (w *walker) sealNode(n *trieNode, want2D, compress bool) {
	s := w.slot
	if n.epochs[s] != w.epoch {
		return
	}
	var all bitvec.Label = n.all[s]
	if compress {
		if set := bitvec.CompressVector(n.all[s], n.allSet[s]); set != nil {
			n.allSet[s] = set
			all = set
		}
	}
	var last bitvec.Label
	if want2D && n.lastEpochs[s] == w.epoch {
		last = n.last[s]
		if compress {
			if set := bitvec.CompressVector(n.last[s], n.lastSet[s]); set != nil {
				n.lastSet[s] = set
				last = set
			}
		}
	}
	snap := &n.snapBuf[s]
	*snap = nodeSnap{
		epoch:    w.epoch,
		all:      all,
		last:     last,
		children: n.children,
		prev:     n.snap.Load(),
	}
	n.snap.Store(snap)
	for _, c := range n.children {
		w.sealNode(c, want2D, compress)
	}
}

// loadSnap resolves a node's published version for the given epoch: nil
// when the node was not part of that round, the version otherwise. A read
// torn by a later seal retries one hop down the version chain and bumps
// *torn.
func loadSnap(n *trieNode, epoch uint64, torn *int64) *nodeSnap {
	s := n.snap.Load()
	if s == nil {
		return nil
	}
	if s.epoch > epoch {
		*torn++
		s = s.prev
		if s == nil {
			return nil
		}
	}
	if s.epoch != epoch {
		return nil
	}
	return s
}

// emitTree converts the sealed snapshot into pooled trace nodes — the
// tree the gather reply serializes. It reads only published snapshots
// (plus the immutable node names), so it would be safe concurrently with
// the next round's walk; torn reads recover through the version chain and
// are counted into *torn.
func (w *walker) emitTree(last bool, torn *int64) *trace.Node {
	root := loadSnap(&w.root, w.sealed, torn)
	return emitSnap(&w.root, root, last, torn)
}

func emitSnap(n *trieNode, s *nodeSnap, last bool, torn *int64) *trace.Node {
	label := s.all
	if last {
		label = s.last
	}
	out := trace.NewPooledNode(trace.Frame{Function: n.name}, label)
	for _, c := range s.children {
		cs := loadSnap(c, s.epoch, torn)
		if cs == nil || (last && cs.last == nil) {
			// Not part of the sealed round('s 2D view): the child array
			// is the live structure at seal time, which can carry edges
			// last touched in older rounds.
			continue
		}
		out.Children = append(out.Children, emitSnap(c, cs, last, torn))
	}
	return out
}
