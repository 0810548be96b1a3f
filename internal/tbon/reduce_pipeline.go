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
	node *topology.Node
	rank int
	pos  int // index among the parent's children
	// dead marks a node inside a fault plan's crashed or partitioned
	// subtree: workers skip its leaf, and its rank is pre-consumed so the
	// gate's head never waits on it.
	dead bool

	mu      sync.Mutex
	folding bool     // a worker is draining the in-order prefix
	next    int      // next child position to fold
	arrived []bool   // child payload delivered, by position
	buf     []*Lease // delivered payloads awaiting their turn
	missing []int    // child positions whose subtrees delivered tombstones
	acc     *Lease

	// ctx and spanBuf are this node's reused filter-call context; only the
	// single folding worker touches them, and filters must not retain the
	// ctx past the call.
	ctx     FilterCtx
	spanBuf [2]Span
}

type pipeRun struct {
	filter  NodeFilter
	gate    *byteGate
	nodes   map[int]*pipeNode // by topology node ID
	partial bool
	waitObs func(ns int64) // reduce-wait observer (gate admission time)

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

// reducePipelined evaluates the reduction on a worker pool: each interior
// node folds its children incrementally, in child order, through the
// filter, while independent subtrees run concurrently. Because the
// per-node fold order is fixed, the result is byte-identical for every
// worker count (one worker is the plain sequential fold) and to
// EngineConcurrent's for any filter associative over ordered inputs, and
// the traffic statistics are identical too.
//
// Memory stays bounded: a payload produced out of fold order must be
// buffered until its left siblings fold, and the gate caps how many such
// payloads are resident (ReduceOptions.BudgetBytes; see byteGate). The
// payload the sequential fold would consume next always bypasses the
// gate, so progress is guaranteed at any bound.
//
// Gate accounting follows the leased-buffer contract: a payload stays
// charged from the moment it is produced until the last reference on its
// lease is released — not merely until the consuming fold returns. A
// filter that retains a child lease (a zero-copy decoder pinning the wire
// buffer under its decoded tree) therefore holds budget for exactly as
// long as it holds the bytes.
func (n *Network) reducePipelined(leaf LeafFunc, filter NodeFilter, opts ReduceOptions) ([]byte, *Stats, error) {
	stats := newStats(len(n.topo.Levels))
	plan, partial, timeout := opts.Faults, opts.Partial, opts.SubtreeTimeout
	leaves := n.topo.Leaves
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(leaves)))

	// Post-order ranks: children before parents, left before right. This
	// is the order a one-worker fold releases payloads in, so the gate's
	// head-of-line bypass always matches the payload the sequential fold
	// would consume next.
	nodes := make(map[int]*pipeNode)
	count := 0
	var index func(node *topology.Node, pos int)
	index = func(node *topology.Node, pos int) {
		for i, c := range node.Children {
			index(c, i)
		}
		pn := &pipeNode{node: node, rank: count, pos: pos}
		count++
		if !node.IsLeaf() {
			pn.arrived = make([]bool, len(node.Children))
			pn.buf = make([]*Lease, len(node.Children))
		}
		nodes[node.ID] = pn
	}
	index(n.topo.Root, 0)

	r := &pipeRun{
		filter:  filter,
		gate:    newByteGate(opts.BudgetBytes, workers, count),
		nodes:   nodes,
		partial: partial,
		waitObs: opts.WaitObserver,
		stats:   stats,
	}

	// Fault-plan pre-pass: a crashed or partitioned subtree delivers
	// nothing. Its ranks are consumed up front — the gate's head
	// must advance through dead nodes or every acquirer wedges behind them
	// — and its top node's parent is handed a tombstone. Without Partial,
	// any dead node fails the run, matching EngineConcurrent.
	if plan != nil {
		if plan.dead(n.topo.Root.ID) {
			return nil, stats, fmt.Errorf("tbon: front end crashed by fault plan")
		}
		var consume func(d *topology.Node)
		consume = func(d *topology.Node) {
			pn := nodes[d.ID]
			pn.dead = true
			r.gate.consumeRank(pn.rank)
			for _, dc := range d.Children {
				consume(dc)
			}
		}
		var walk func(node *topology.Node) error
		walk = func(node *topology.Node) error {
			for i, c := range node.Children {
				if plan.dead(c.ID) {
					if !partial {
						return fmt.Errorf("tbon: node %d crashed by fault plan", c.ID)
					}
					consume(c)
					r.deliver(nodes[node.ID], i, nil)
					continue
				}
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(n.topo.Root); err != nil {
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
				ln := leaves[i]
				pn := nodes[ln.ID]
				if pn.dead {
					continue
				}
				lf := leaf
				if d := plan.slow(ln.ID); d > 0 {
					lf = func(idx int) (*Lease, error) {
						time.Sleep(d)
						return leaf(idx)
					}
				}
				out, err := callLeafTimed(lf, ln.LeafIndex, timeout)
				if err != nil {
					if r.partial {
						// A lost daemon, not a bug: tombstone the leaf and
						// keep reducing.
						r.deliver(nodes[ln.Parent.ID], pn.pos, nil)
						continue
					}
					r.fail(fmt.Errorf("tbon: leaf %d: %w", ln.LeafIndex, err))
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
		// pools, transport receive pools) are not silently lost. The
		// workers are gone, so the node locks are uncontended.
		for _, pn := range nodes {
			pn.mu.Lock()
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
			pn.mu.Unlock()
		}
		if r.out != nil {
			r.out.Release()
			r.out = nil
		}
		return nil, stats, r.err
	}
	if r.out == nil {
		return nil, stats, fmt.Errorf("tbon: pipelined reduction finished without a root result")
	}
	stats.PeakInFlightBytes = r.gate.peakBytes()
	// The root lease is retired without recycling: the caller owns the
	// result bytes outright.
	b := r.out.Bytes()
	r.out.retire()
	return b, stats, nil
}

// complete handles a node whose output is final: the root's output is the
// reduction result; any other node's output is charged against the gate
// and delivered to its parent. Runs on the worker that produced the
// output, so a completing subtree cascades toward the root in one thread.
// Ownership of l transfers to complete.
func (r *pipeRun) complete(pn *pipeNode, l *Lease) {
	size := int64(l.Len())
	r.statsMu.Lock()
	r.stats.NodeOutBytes[pn.node.ID] = size
	r.statsMu.Unlock()
	if pn.node.Parent == nil {
		r.out = l
		return
	}
	// A pass-through filter may hand back a retained child lease that
	// still carries its own edge's byte charge. The payload's accounting
	// moves up an edge: refund the old charge before acquiring at this
	// node's rank, so the same bytes are not counted twice.
	l.dropGate()
	if r.waitObs != nil {
		// Reduce-wait is gate admission: the time a produced payload
		// sat blocked before the in-flight bound made room for it — see
		// ReduceOptions.WaitObserver.
		start := time.Now()
		ok := r.gate.acquire(pn.rank, size)
		r.waitObs(time.Since(start).Nanoseconds())
		if !ok {
			l.Release()
			return // the run failed while we waited
		}
	} else if !r.gate.acquire(pn.rank, size) {
		l.Release()
		return // the run failed while we waited
	}
	// The charge stays until the lease's last reference dies — the engine
	// releases its reference after the consuming fold, but a filter that
	// retained the payload keeps it charged. The engine holds the only
	// references here, so setting the charge fields is safe.
	l.chargeGate(r.gate, size)
	r.deliver(r.nodes[pn.node.Parent.ID], pn.pos, l)
}

// deliver buffers one child payload at its parent and, unless another
// worker is already folding there, drains the contiguous arrived prefix
// through the filter in child order. Filter calls run outside the node
// lock so late siblings can buffer their payloads without waiting for a
// merge in progress. A nil payload is a tombstone: the child subtree
// delivered nothing (fault plan or timed-out leaf), the position is
// recorded missing, and — if every child was a tombstone — the node
// propagates a tombstone of its own.
func (r *pipeRun) deliver(pp *pipeNode, pos int, payload *Lease) {
	pp.mu.Lock()
	pp.buf[pos], pp.arrived[pos] = payload, true
	if pp.folding {
		pp.mu.Unlock()
		return
	}
	pp.folding = true
	for pp.next < len(pp.arrived) && pp.arrived[pp.next] && !r.failed.Load() {
		i := pp.next
		p := pp.buf[i]
		pp.buf[i] = nil
		if p == nil {
			// Tombstone. Fold order must keep advancing through the dead
			// rank or the gate's head-of-line bypass wedges behind it
			// (consumeRank is idempotent, so a pre-consumed dead subtree
			// is fine).
			pp.missing = append(pp.missing, i)
			pp.next = i + 1
			r.gate.consumeRank(r.nodes[pp.node.Children[i].ID].rank)
			continue
		}
		acc := pp.acc
		pp.mu.Unlock()

		r.statsMu.Lock()
		r.stats.NodeInBytes[pp.node.ID] += int64(p.Len())
		r.stats.LevelInBytes[pp.node.Level] += int64(p.Len())
		r.stats.Packets++
		r.statsMu.Unlock()

		var folded *Lease
		var err error
		// pp.missing is only touched by the single folding worker, so
		// reading it outside the lock is safe.
		pp.ctx.Node, pp.ctx.Missing = pp.node, pp.missing
		if acc == nil {
			// Normalize even a single child through the filter so a
			// node's output shape does not depend on its arity.
			pp.spanBuf[0] = Span{i, i + 1}
			pp.ctx.Spans = pp.spanBuf[:1]
			folded, err = r.filter(&pp.ctx, []*Lease{p})
		} else {
			pp.spanBuf[0], pp.spanBuf[1] = Span{0, i}, Span{i, i + 1}
			pp.ctx.Spans = pp.spanBuf[:2]
			folded, err = r.filter(&pp.ctx, []*Lease{acc, p})
		}
		// The fold consumed this child's payload: advance the gate's
		// rank order now (the head must track fold order even if the
		// filter retained the payload), while the byte charge itself
		// lifts only when every reference — including a filter's retain
		// — is gone.
		r.gate.consumeRank(r.nodes[pp.node.Children[i].ID].rank)
		p.Release()
		if acc != nil {
			acc.Release()
		}
		if err != nil {
			r.fail(fmt.Errorf("tbon: filter at node %d: %w", pp.node.ID, err))
			pp.mu.Lock()
			pp.acc = nil
			break
		}
		pp.mu.Lock()
		pp.acc = folded
		pp.next = i + 1
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
		if pp.node.Parent == nil {
			r.fail(fmt.Errorf("tbon: no surviving subtree reached the front end"))
			return
		}
		r.deliver(r.nodes[pp.node.Parent.ID], pp.pos, nil)
		return
	}
	if len(missing) > 0 {
		// Seal: one final call whose ctx carries the node's complete
		// missing set, so a loss after the last fold (a dead trailing
		// child) still surfaces in the output. No other worker can reach
		// this node again — every position has arrived — so touching ctx
		// without the lock is safe.
		pp.spanBuf[0] = Span{0, len(pp.node.Children)}
		pp.ctx.Node, pp.ctx.Spans, pp.ctx.Missing = pp.node, pp.spanBuf[:1], missing
		folded, err := r.filter(&pp.ctx, []*Lease{acc})
		acc.Release()
		if err != nil {
			r.fail(fmt.Errorf("tbon: filter at node %d: %w", pp.node.ID, err))
			return
		}
		acc = folded
	}
	r.complete(pp, acc)
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
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inFlight += n
	g.payloads++
	g.peak = max(g.peak, g.inFlight)
	for {
		if g.stopped {
			g.inFlight -= n
			g.payloads--
			return false
		}
		if rank == g.head || g.fits() {
			return true
		}
		g.cond.Wait()
	}
}

func (g *byteGate) fits() bool {
	if g.budget > 0 {
		return g.inFlight <= g.budget
	}
	return g.payloads <= g.slots
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
	g.cond.Broadcast()
	g.mu.Unlock()
}

// refund returns one payload of n bytes to the gate. Under the
// leased-buffer contract it runs when the payload's last reference dies,
// on whichever goroutine dropped it.
func (g *byteGate) refund(n int64) {
	g.mu.Lock()
	g.inFlight -= n
	g.payloads--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// stop aborts all current and future acquires.
func (g *byteGate) stop() {
	g.mu.Lock()
	g.stopped = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *byteGate) peakBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}
