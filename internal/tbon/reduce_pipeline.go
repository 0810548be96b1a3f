package tbon

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stat/internal/topology"
)

// pipeNode is the scheduler's per-node state. rank is the node's position
// in post-order traversal — exactly the order a one-worker fold finishes
// nodes — and drives the gate's admission order.
type pipeNode struct {
	node   *topology.Node
	parent *pipeNode // nil at the root
	kids   []*pipeNode
	rank   int
	pos    int // index among the parent's children
	// dead marks a node inside a crashed leaf's or cut uplink's subtree:
	// workers skip its leaf, and its rank is pre-consumed so the gate's
	// head never waits on it.
	dead bool

	mu      sync.Mutex
	folding bool     // a worker is draining the in-order prefix
	next    int      // next child position to fold
	arrived []bool   // child payload delivered, by position
	buf     []*Lease // delivered payloads awaiting their turn
	missing []int    // child positions whose subtrees delivered tombstones
	acc     *Lease

	// ctx, in and spans are this node's reused filter-call arguments;
	// only the single folding worker touches them, and filters must not
	// retain them past the call.
	ctx   FilterCtx
	in    []*Lease
	spans []Span
}

type pipeRun struct {
	filter  NodeFilter
	gate    *byteGate
	byRank  []*pipeNode
	plan    *FaultPlan
	partial bool
	timeout time.Duration

	statsMu sync.Mutex
	stats   *Stats

	failOnce sync.Once
	err      error
	failed   atomic.Bool

	out *Lease
}

func (r *pipeRun) fail(err error) {
	r.failOnce.Do(func() {
		r.err = err
		r.failed.Store(true)
		r.gate.stop()
	})
}

// PoolWorkers is the worker count a reduction over the given number of
// leaves runs with: ReduceOptions.Workers, GOMAXPROCS when that is not
// positive, and never more workers than leaves.
func PoolWorkers(workers, leaves int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, leaves))
}

// ReduceNodeLeasedWith runs one upstream reduction through a
// position-aware NodeFilter — required for partial-result reductions,
// where the filter must know which children each input covers
// (FilterCtx) — with leaves that produce leased payloads; see LeafFunc.
//
// Workers claim leaves in post-order and cascade each completed subtree
// toward the root, while independent subtrees run concurrently. Each
// interior node folds its children in child order, one filter call per
// contiguous arrived prefix; because the order is fixed and the filter is
// associative over ordered inputs, the result is byte-identical for every
// worker count and bound (one worker under the default bound is the
// plain pairwise fold), and the traffic statistics are identical too.
//
// Memory stays bounded: a payload produced out of fold order must be
// buffered until its left siblings fold, and the gate caps how many such
// payloads are resident (ReduceOptions.BudgetBytes; see byteGate). Under
// a byte budget a node defers its fold while the budget has room, so that
// it usually folds all k children in one call; deferral only ever holds
// payloads the gate already admitted. The payload the sequential fold
// would consume next always bypasses the gate, and no acquirer blocks
// while that payload sits in a deferred prefix (see unwedge), so progress
// is guaranteed at any bound.
//
// Gate accounting follows the leased-buffer contract: a payload stays
// charged from the moment it is produced until the last reference on its
// lease is released — not merely until the consuming fold returns. A
// filter that retains a child lease (a zero-copy decoder pinning the wire
// buffer under its decoded tree) therefore holds budget for exactly as
// long as it holds the bytes.
func (n *Network) ReduceNodeLeasedWith(opts ReduceOptions, leaf LeafFunc, filter NodeFilter) ([]byte, *Stats, error) {
	stats := newStats(len(n.topo.Levels))
	plan, partial := opts.Faults, opts.Partial

	// Post-order ranks: children before parents, left before right. This
	// is the order a one-worker fold releases payloads in, so the gate's
	// head-of-line bypass always matches the payload the sequential fold
	// would consume next. Leaves are claimed in the same order.
	var byRank, leaves []*pipeNode
	var index func(node *topology.Node, pos int) *pipeNode
	index = func(node *topology.Node, pos int) *pipeNode {
		pn := &pipeNode{node: node, pos: pos}
		if node.IsLeaf() {
			leaves = append(leaves, pn)
		} else {
			k := len(node.Children)
			pn.kids = make([]*pipeNode, k)
			pn.arrived = make([]bool, k)
			pn.buf = make([]*Lease, k)
			pn.in = make([]*Lease, 0, k+1)
			pn.spans = make([]Span, 0, k+1)
			for i, c := range node.Children {
				pn.kids[i] = index(c, i)
				pn.kids[i].parent = pn
			}
		}
		pn.rank = len(byRank)
		byRank = append(byRank, pn)
		return pn
	}
	root := index(n.topo.Root, 0)

	workers := PoolWorkers(opts.Workers, len(leaves))
	r := &pipeRun{
		filter:  filter,
		gate:    newByteGate(opts.BudgetBytes, workers, len(byRank)),
		byRank:  byRank,
		plan:    plan,
		partial: partial,
		timeout: opts.SubtreeTimeout,
		stats:   stats,
	}
	r.gate.unwedge, r.gate.observe = r.unwedge, opts.WaitObserver

	// Fault-plan pre-pass. A crashed leaf or a cut uplink delivers
	// nothing: its subtree's ranks are consumed up front — the gate's
	// head must advance through dead nodes or every acquirer wedges
	// behind them — and its parent is handed a tombstone. A crashed
	// interior node is re-parented instead: nothing marks it, so its
	// children fold on its behalf exactly as if it lived. Without
	// Partial, any crash or cut fails the run.
	if plan != nil {
		if plan.crashed(root.node.ID) {
			return nil, stats, fmt.Errorf("tbon: front end crashed by fault plan")
		}
		var consume func(pn *pipeNode)
		consume = func(pn *pipeNode) {
			pn.dead = true
			r.gate.consumeRank(pn.rank)
			for _, k := range pn.kids {
				consume(k)
			}
		}
		var walk func(pn *pipeNode) error
		walk = func(pn *pipeNode) error {
			for _, k := range pn.kids {
				id := k.node.ID
				if !partial && (plan.crashed(id) || plan.cut(id)) {
					return fmt.Errorf("tbon: node %d crashed by fault plan", id)
				}
				if plan.cut(id) || plan.crashed(id) && k.kids == nil {
					consume(k)
					r.deliver(pn, k.pos, nil)
					continue
				}
				if err := walk(k); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(root); err != nil {
			return nil, stats, err
		}
		if r.err != nil {
			// Tombstone cascades can decide the run before any worker
			// starts (every subtree dead).
			return nil, stats, r.err
		}
	}

	var nextLeaf atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !r.failed.Load() {
				i := int(nextLeaf.Add(1)) - 1
				if i >= len(leaves) {
					return
				}
				pn := leaves[i]
				if pn.dead {
					continue
				}
				out, err := callLeafTimed(leaf, pn.node.LeafIndex, r.timeout)
				if err != nil {
					if r.partial && pn.parent != nil {
						// A lost daemon, not a bug: tombstone the leaf and
						// keep reducing.
						r.deliver(pn.parent, pn.pos, nil)
						continue
					}
					r.fail(fmt.Errorf("tbon: leaf %d: %w", pn.node.LeafIndex, err))
					return
				}
				r.complete(pn, out)
			}
		}()
	}
	wg.Wait()

	if r.err != nil {
		// Release every lease stranded mid-flight by the failure —
		// buffered-but-unfolded child payloads and partial accumulators —
		// so their free hooks run and pooled buffers (filter output
		// pools, leaf pools) are not silently lost. The workers are gone,
		// so no node lock is needed.
		for _, pn := range byRank {
			for i, l := range pn.buf {
				if l != nil {
					pn.buf[i] = nil
					l.Release()
				}
			}
			if pn.acc != nil {
				pn.acc.Release()
				pn.acc = nil
			}
		}
		if r.out != nil {
			r.out.Release()
			r.out = nil
		}
		return nil, stats, r.err
	}
	if r.out == nil {
		return nil, stats, fmt.Errorf("tbon: reduction finished without a root result")
	}
	stats.PeakInFlightBytes = r.gate.peakBytes()
	// The root lease is retired without recycling: the caller owns the
	// result bytes outright.
	b := r.out.Bytes()
	r.out.retire()
	return b, stats, nil
}

// complete handles a node whose output is final: the root's output is the
// reduction result; any other node's output crosses its uplink (where a
// fault plan may delay or drop it), is charged against the gate and is
// delivered to its parent. Runs on the worker that produced the output, so
// a completing subtree cascades toward the root in one thread. Ownership
// of l transfers to complete.
func (r *pipeRun) complete(pn *pipeNode, l *Lease) {
	if pn.parent == nil {
		r.statsMu.Lock()
		r.stats.NodeOutBytes[pn.node.ID] = int64(l.Len())
		r.statsMu.Unlock()
		r.out = l
		return
	}
	if d := r.plan.slow(pn.node.ID); d > 0 {
		if r.timeout > 0 && d > r.timeout {
			// The parent gives up on the subtree after the timeout; the
			// payload never arrives.
			time.Sleep(r.timeout)
			l.Release()
			if !r.partial {
				r.fail(fmt.Errorf("tbon: node %d uplink: %w", pn.node.ID, errSubtreeTimeout))
				return
			}
			r.deliver(pn.parent, pn.pos, nil)
			return
		}
		time.Sleep(d)
	}
	size := int64(l.Len())
	r.statsMu.Lock()
	r.stats.NodeOutBytes[pn.node.ID] = size
	r.statsMu.Unlock()
	// A pass-through filter may hand back a retained child lease that
	// still carries its own edge's byte charge. The payload's accounting
	// moves up an edge: refund the old charge before acquiring at this
	// node's rank, so the same bytes are not counted twice.
	l.dropGate()
	if !r.gate.acquire(pn.rank, size) {
		l.Release()
		return // the run failed while we waited
	}
	// The charge stays until the lease's last reference dies — the engine
	// releases its reference after the consuming fold, but a filter that
	// retained the payload keeps it charged. The engine holds the only
	// references here, so setting the charge fields is safe.
	l.chargeGate(r.gate, size)
	r.deliver(pn.parent, pn.pos, l)
}

// deliver buffers one child payload at its parent and drains the parent's
// arrived prefix (see drain). A nil payload is a tombstone: the child
// subtree delivered nothing (fault plan or timed-out leaf).
func (r *pipeRun) deliver(pp *pipeNode, pos int, payload *Lease) {
	pp.mu.Lock()
	pp.buf[pos], pp.arrived[pos] = payload, true
	r.drain(pp, false)
}

// unwedge is the gate's hook before an acquirer blocks behind head: if
// the head of line's payload has arrived at its parent and sits unfolded
// in a deferred prefix that no worker is folding, the acquirer folds it
// itself. Without this, every worker could block at a full gate while
// the one payload that would advance the head waits for a sibling no
// worker can produce. A forced fold never leaves a waiting acquirer
// behind: if it completes the parent, the parent's payload is then the
// head and is admitted at once.
func (r *pipeRun) unwedge(head int) {
	hn := r.byRank[head]
	pp := hn.parent
	if pp == nil {
		return
	}
	pp.mu.Lock()
	if pp.folding || !pp.arrived[hn.pos] || pp.next > hn.pos {
		pp.mu.Unlock()
		return
	}
	r.drain(pp, true)
}

// drain folds pp's contiguous arrived prefix through the filter, unless
// another worker is already folding there: one call takes the accumulator
// (span {0,i}) and every arrived payload from position i on (spans
// {j,j+1}), with tombstones recorded missing. While the node still waits
// for children and the gate has room (see hasRoom), the fold is deferred
// instead (force overrides that once), so a node usually folds all its
// children in one call. Filter calls run outside the node lock so late
// siblings can buffer their payloads without waiting for a merge in
// progress. A node whose children were all tombstones propagates a
// tombstone of its own.
//
// Called with pp.mu held; returns with it released.
func (r *pipeRun) drain(pp *pipeNode, force bool) {
	if pp.folding {
		pp.mu.Unlock()
		return
	}
	pp.folding = true
	for !r.failed.Load() {
		from, to := pp.next, pp.next
		for to < len(pp.arrived) && pp.arrived[to] {
			to++
		}
		if to == from || !force && to < len(pp.arrived) && r.gate.hasRoom() {
			break
		}
		force = false
		in, spans := pp.in[:0], pp.spans[:0]
		if pp.acc != nil {
			in, spans = append(in, pp.acc), append(spans, Span{0, from})
		}
		base := len(in)
		for i := from; i < to; i++ {
			if p := pp.buf[i]; p != nil {
				in, spans = append(in, p), append(spans, Span{i, i + 1})
				pp.buf[i] = nil
			} else {
				pp.missing = append(pp.missing, i)
			}
		}
		pp.next = to
		if len(in) == base {
			// Tombstones only: nothing to fold, but fold order must keep
			// advancing through the dead ranks or the gate's head wedges
			// behind them (consumeRank is idempotent, so a pre-consumed
			// dead subtree is fine).
			r.consumeKids(pp, from, to)
			continue
		}
		pp.acc = nil
		pp.mu.Unlock()

		r.statsMu.Lock()
		for _, p := range in[base:] {
			r.stats.NodeInBytes[pp.node.ID] += int64(p.Len())
			r.stats.LevelInBytes[pp.node.Level] += int64(p.Len())
		}
		r.stats.Packets += int64(len(in) - base)
		r.statsMu.Unlock()

		// pp.missing is only touched by the single folding worker, so
		// reading it outside the lock is safe.
		pp.ctx.Node, pp.ctx.Spans, pp.ctx.Missing = pp.node, spans, pp.missing
		folded, err := r.filter(&pp.ctx, in)
		// The fold consumed these children's payloads: advance the gate's
		// rank order now (the head must track fold order even if the
		// filter retained a payload), while the byte charges lift only
		// when every reference — including a filter's retain — is gone.
		r.consumeKids(pp, from, to)
		for _, l := range in {
			l.Release()
		}
		clear(in)
		pp.in, pp.spans = in[:0], spans[:0]
		pp.mu.Lock()
		if err != nil {
			r.fail(fmt.Errorf("tbon: filter at node %d: %w", pp.node.ID, err))
			break
		}
		pp.acc = folded
	}
	done := pp.next == len(pp.arrived) && !r.failed.Load()
	acc := pp.acc
	missing := pp.missing
	if done {
		pp.acc = nil
	}
	pp.folding = false
	pp.mu.Unlock()
	if !done {
		return
	}
	if acc == nil {
		// Every child was a tombstone: this node dies silently too.
		if pp.parent == nil {
			r.fail(fmt.Errorf("tbon: no surviving subtree reached the front end"))
			return
		}
		r.deliver(pp.parent, pp.pos, nil)
		return
	}
	if len(missing) > 0 {
		// Seal: one final call whose ctx carries the node's complete
		// missing set, so a loss after the last fold (a dead trailing
		// child) still surfaces in the output. No other worker can reach
		// this node again — every position has arrived — so touching ctx
		// without the lock is safe.
		pp.in = append(pp.in[:0], acc)
		pp.spans = append(pp.spans[:0], Span{0, len(pp.arrived)})
		pp.ctx.Node, pp.ctx.Spans, pp.ctx.Missing = pp.node, pp.spans, missing
		folded, err := r.filter(&pp.ctx, pp.in)
		pp.in[0] = nil
		acc.Release()
		if err != nil {
			r.fail(fmt.Errorf("tbon: filter at node %d: %w", pp.node.ID, err))
			return
		}
		acc = folded
	}
	r.complete(pp, acc)
}

// consumeKids marks the ranks of pp's children at positions [from, to)
// folded.
func (r *pipeRun) consumeKids(pp *pipeNode, from, to int) {
	for _, k := range pp.kids[from:to] {
		r.gate.consumeRank(k.rank)
	}
}

// byteGate is a rank-ordered semaphore over resident payloads. A
// payload is charged the moment it exists — when acquire is called,
// before any blocking — so the in-flight totals and the recorded peak
// are the true resident payloads, including those held by workers still
// waiting for admission. acquire then blocks while the bound is exceeded:
// with a positive byte budget, while the resident bytes exceed it;
// otherwise, while more payloads are resident than there are slots (one
// per worker). The head rank, the smallest not-yet-consumed node, whose
// payload the sequential fold would consume next, is always admitted.
// That bypass is what makes any bound deadlock-free. A worker holds at
// most one unadmitted payload at a time and admission only proceeds
// within the bound, so residency never exceeds the bound plus one payload
// per worker (production cannot be gated: a payload's size is unknown
// until the leaf callback or fold producing it returns).
//
// Rank consumption (consumeRank, at fold time) and refund (at lease
// death) are separate operations: a filter may retain a folded payload's
// lease, keeping it charged long after the fold, and the head must keep
// advancing regardless or the bypass would stop guaranteeing progress.
// Retained payloads can hold the gate over its bound indefinitely — then
// each successive payload is admitted exactly when it becomes the head,
// degrading to sequential-fold order rather than deadlocking.
type byteGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	budget   int64 // bytes; <= 0 bounds the payload count by slots instead
	slots    int
	inFlight int64  // resident bytes
	payloads int    // resident payloads
	peak     int64  // bytes
	released []bool // by post-order rank
	head     int    // smallest unreleased rank
	stopped  bool
	// gen counts consumptions, refunds and stops — every change that can
	// admit a blocked acquirer. A blocked acquirer waits for it to move.
	gen uint64

	// unwedge, when set, runs before an acquirer blocks, outside the
	// gate's lock, with the head rank it is waiting behind.
	unwedge func(head int)
	// observe, when set, receives each admission's blocked nanoseconds.
	observe func(ns int64)
}

func newByteGate(budget int64, slots, ranks int) *byteGate {
	g := &byteGate{budget: budget, slots: slots, released: make([]bool, ranks)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire charges one payload of n bytes immediately, then blocks until
// it fits the bound (or rank is the head). It reports false when the gate
// was stopped by a failing run, in which case the charge is rolled back.
func (g *byteGate) acquire(rank int, n int64) bool {
	var blocked time.Duration
	g.mu.Lock()
	g.inFlight += n
	g.payloads++
	g.peak = max(g.peak, g.inFlight)
	for !g.stopped && rank != g.head && !g.fits() {
		gen, head := g.gen, g.head
		if g.unwedge != nil {
			g.mu.Unlock()
			g.unwedge(head)
			g.mu.Lock()
		}
		if gen != g.gen {
			continue
		}
		var start time.Time
		if g.observe != nil {
			start = time.Now()
		}
		for gen == g.gen {
			g.cond.Wait()
		}
		if g.observe != nil {
			blocked += time.Since(start)
		}
	}
	ok := !g.stopped
	if !ok {
		g.inFlight -= n
		g.payloads--
	}
	g.mu.Unlock()
	if ok && g.observe != nil {
		g.observe(blocked.Nanoseconds())
	}
	return ok
}

func (g *byteGate) fits() bool {
	if g.budget > 0 {
		return g.inFlight <= g.budget
	}
	return g.payloads <= g.slots
}

// hasRoom reports whether a node may keep deferring its fold: whether
// holding one more admitted payload back can leave every worker's next
// payload admissible. Under a byte budget that is resident bytes below
// the budget. Under the default slot bound every slot is reserved for a
// worker's next payload, so there is never room: a deferred payload would
// make the next producer wait for a fold. hasRoom is false whenever an
// acquirer is blocked, so deferral never holds a payload an admission is
// waiting for.
func (g *byteGate) hasRoom() bool {
	if g.budget <= 0 {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inFlight < g.budget
}

// consumeRank marks rank's payload folded, which may advance the head
// and wake blocked acquirers. Consumption and accounting are deliberately
// decoupled: the head must advance in fold order even when a filter
// retains the folded payload (keeping it charged), or the head-of-line
// bypass would wedge behind the first retained payload and the
// deadlock-freedom guarantee would be lost.
func (g *byteGate) consumeRank(rank int) {
	g.mu.Lock()
	g.released[rank] = true
	for g.head < len(g.released) && g.released[g.head] {
		g.head++
	}
	g.wake()
	g.mu.Unlock()
}

// refund returns one payload of n bytes to the gate. Under the
// leased-buffer contract it runs when the payload's last reference dies,
// on whichever goroutine dropped it.
func (g *byteGate) refund(n int64) {
	g.mu.Lock()
	g.inFlight -= n
	g.payloads--
	g.wake()
	g.mu.Unlock()
}

// stop aborts all current and future acquires.
func (g *byteGate) stop() {
	g.mu.Lock()
	g.stopped = true
	g.wake()
	g.mu.Unlock()
}

// wake records a state change and wakes every blocked acquirer. Called
// with g.mu held.
func (g *byteGate) wake() {
	g.gen++
	g.cond.Broadcast()
}

func (g *byteGate) peakBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}
