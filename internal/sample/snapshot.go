package sample

import (
	"time"

	"stat/internal/bitvec"
	"stat/internal/trace"
)

// This file implements the epoch-stamped atomic trie snapshot that lets a
// daemon emit round N's trees while its walker already walks round N+1 —
// the same atomic-copy discipline as stackwalk.Cache's lock-free read
// path (immutable versions behind atomic pointers; readers validate and
// retry instead of locking), applied to a structure that mutates every
// round instead of growing monotonically.
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
// until the *second* subsequent seal. The engine's own pipeline never
// runs that deep — emit N completes before seal N+1 starts — so in
// production the hop only fires if callers drive walkers harder than the
// Engine does; the race-stress tests do exactly that.

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
// between the round's walk and the start of the next one; after it
// returns, the next walk may begin immediately, because walks write only
// the other parity slot and replace child arrays copy-on-write.
func (w *walker) seal(req Request) {
	prev, prevReq := w.sealed, w.prevSealReq
	w.sealed = w.epoch
	w.sealedWidth = w.width
	w.prevSealReq = req
	w.sealNode(&w.root, req.Want2D, req.Compress)
	// Delta extraction (delta.go) rides the same quiesced window: it needs
	// the previous round's parity slot, which the *next* walk will
	// overwrite, so this is the only place the two-round XOR can be
	// computed. Valid only against an immediately preceding seal of
	// compatible shape — a claim-mismatch re-walk (epoch jump of 2), a
	// walker fresh from the pool, or a shape change all fall back to
	// whole-tree emission via deltaOK=false.
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
// (plus the immutable node names), so it is safe concurrently with the
// next round's walk; torn reads recover through the version chain and are
// counted into *torn.
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

// Prefetch is an outstanding background walk: a walker pinned off the
// engine pool, its resident goroutine walking a speculative next round
// while the current round's trees travel up the overlay. The pin holds
// the walker, never a walk slot: only the background walk itself runs on
// one. Exactly one of Engine.SampleOverlap (which claims it) or Cancel
// must consume it.
type Prefetch struct {
	w *walker
}

// Cancel abandons the prefetched walk: it waits for the background walk
// to finish (the trie tolerates the wasted round — its epoch stamps make
// the stale touches invisible), counts it in Stats.UnclaimedWalks, stops
// the walker's background goroutine, and returns the walker to the engine
// pool. Safe on nil and idempotent.
func (p *Prefetch) Cancel() {
	if p == nil || p.w == nil {
		return
	}
	w := p.w
	p.w = nil
	<-w.bgDone
	w.eng.unclaimed.Add(1)
	close(w.bg)
	w.bg, w.bgDone = nil, nil
	w.preLive = false
	w.eng.prefetches.Add(-1)
	w.eng.putWalker(w)
}

// startPrefetch hands the walker's resident goroutine the speculative
// next round and returns the handle (embedded in the walker — no
// allocation per round). Caller holds the walker and has already sealed
// the current round.
func (w *walker) startPrefetch(req Request) *Prefetch {
	if w.bg == nil {
		w.bg = make(chan Request)
		w.bgDone = make(chan int64, 1)
		go w.bgLoop()
	}
	w.preReq = req
	w.preLive = true
	w.preHdl = Prefetch{w: w}
	w.bg <- req
	return &w.preHdl
}

// claim waits for the outstanding background walk and reports whether it
// matches the round actually requested, plus the walk nanoseconds that
// ran before the claim arrived (the time the overlap hid). On a mismatch
// the caller re-walks with the real request; the speculative round's
// trie writes are invisible at the new epoch.
func (w *walker) claim(req Request) (hit bool, hiddenNanos int64) {
	waitStart := time.Now()
	walkNanos := <-w.bgDone
	wait := time.Since(waitStart).Nanoseconds()
	w.preLive = false
	hiddenNanos = walkNanos - wait
	if hiddenNanos < 0 {
		hiddenNanos = 0
	}
	return sameRequest(w.preReq, req), hiddenNanos
}

// sameRequest reports whether a speculative prefetch request matches the
// round the front end actually asked for.
func sameRequest(a, b Request) bool {
	if a.GlobalIndex != b.GlobalIndex || a.Width != b.Width ||
		a.Samples != b.Samples || a.Threads != b.Threads || a.Base != b.Base ||
		a.Detail != b.Detail || a.Compress != b.Compress ||
		a.Want2D != b.Want2D || a.Want3D != b.Want3D ||
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
