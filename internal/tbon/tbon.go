// Package tbon implements a tree-based overlay network in the style of
// MRNet: a front end at the root, communication processes in the middle,
// and tool daemons at the leaves. Upstream reductions apply a caller-
// supplied filter at every interior node — for STAT, the filter is the
// prefix-tree merge — so data volume is reduced as it propagates toward
// the front end. The network runs for real (one goroutine per process,
// pluggable channel or TCP transports) and records per-node byte counts;
// wall-clock time at machine scale is then computed from those counts by
// the timing model in timing.go.
//
// # Reduction engines
//
// The network offers two evaluation strategies for the same reduction.
// Both produce identical traffic statistics, and for any filter that is
// associative over ordered inputs (both prefix-tree merges are) they
// produce byte-identical results.
//
//   - EnginePipelined (the zero value): a worker pool evaluates the
//     topology DAG. Independent subtrees run concurrently, while each
//     interior node folds its children incrementally, one at a time, in
//     child order. A rank-ordered gate bounds the payloads buffered
//     between production and folding. By default it admits at most one
//     produced-but-unfolded payload per worker ahead of the head of line
//     (the payload the sequential fold would consume next), so peak
//     memory scales with the worker count, not with the fleet;
//     ReduceOptions.BudgetBytes swaps that bound for an explicit byte
//     budget. ReduceOptions.Workers = 1 is the single-threaded fold:
//     one accumulator plus one child payload per tree level.
//
//   - EngineConcurrent: one goroutine per overlay process with payloads
//     flowing over the configured transport. Fully concurrent, but every
//     child payload of every node can be in flight at once — at
//     BlueGene/L scale that is gigabytes — and each edge pays transport
//     overhead. It is also the only engine that re-parents orphans after
//     an interior crash.
//
// ReduceWith selects an engine at runtime from a ReduceOptions value.
//
// # Buffer lifetime
//
// Payloads move as refcounted leased buffers (Lease), not throwaway
// byte slices. The contract, which every engine and transport obeys:
//
//   - A filter receives its child payloads as leases the engine owns. The
//     bytes are valid for the duration of the call; a filter that wants
//     them to outlive the call (a zero-copy decoder whose decoded tree
//     views the wire buffer, say) calls Retain and pairs it with Release
//     when the derived structure dies. Filters must not mutate input
//     bytes: a retained buffer may still be counted, logged, or viewed by
//     the engine.
//
//   - A filter returns its output as a lease it mints (NewLease), which
//     transfers ownership to the engine. The free hook is how a filter
//     recycles pooled output buffers: the engine releases its reference
//     once the payload has been consumed upstream, and the buffer returns
//     to the filter's pool with no copying anywhere in between. A
//     pass-through filter may return a child lease itself (Retain it
//     first), but must then hand the engine exclusive ownership of that
//     return: keeping further references that other goroutines release
//     concurrently races the engine's budget bookkeeping on the lease.
//
//   - Under EnginePipelined, a payload stays charged against the gate
//     (its bytes against ReduceOptions.BudgetBytes, or its slot against
//     the per-worker bound) from the moment it is produced until the
//     last reference is released — not merely until the consuming filter
//     returns. A filter that pins child buffers therefore holds budget;
//     the head-of-line bypass still guarantees progress, but a filter that
//     pins payloads indefinitely starves the budget by design.
//
//   - The reduction result returned by the Reduce variants is an unleased
//     byte slice owned by the caller: the root payload's lease is retired
//     without recycling, so the bytes stay valid indefinitely.
//
// Leaf payloads come in two forms. The plain leafData callbacks return
// byte slices the engine wraps in hookless leases; ownership transfers to
// the engine — a leaf callback must hand out a buffer it will not reuse.
// The leased form (LeafFunc, via ReduceLeasedWith) lets leaves mint their
// payloads from pooled buffers behind real leases — the lease's free hook
// returns the buffer to the leaf's pool once the consuming filter (and
// anything that retained the payload) is done with it, extending the
// zero-allocation payload cycle all the way down to payload production.
//
// # Failure semantics
//
// By default a reduction is all-or-nothing: the first error anywhere in
// the overlay — a leaf callback failing, a transport breaking, a filter
// rejecting its inputs — fails the whole run, and the engine sweeps every
// stranded lease on the way out so pooled buffers survive the failure
// (LiveLeases must return to its pre-reduction baseline, which the
// fault-injection tests assert).
//
// ReduceOptions.Partial switches the contract from all-or-nothing to
// degrade-gracefully, the regime the paper's scale demands:
//
//   - Faults are tolerated; bugs are not. A subtree that crashes, times
//     out (ReduceOptions.SubtreeTimeout), or partitions is dropped — its
//     child position is reported in FilterCtx.Missing and the surviving
//     children still merge. A filter error remains fatal in every mode:
//     it indicts the data, not the fabric.
//
//   - Filters see what is missing. Partial reductions require a
//     position-aware NodeFilter (ReduceNodeLeasedWith):
//     each call carries a FilterCtx naming the topology node, the child
//     span each input covers, and the missing positions, which is what
//     lets core's result filter attach an explicit liveness set to a
//     partial packet. A node all of whose children are lost emits nothing
//     and is itself reported missing one level up; if nothing reaches the
//     front end the reduction fails ("no surviving subtree").
//
//   - Orphans are re-parented when possible. Under EngineConcurrent a
//     crashed interior node leaves its children's payloads buffered in
//     their uplink edges; the node's parent orders the first surviving
//     interior sibling to adopt them (or gathers them itself when no
//     sibling qualifies), so a single comm-process crash typically loses
//     nothing at all. Only an unrecoverable subtree is declared missing.
//
//   - Lease lifetime on error paths is unchanged: every engine sweeps
//     stranded payloads on both failed and partial runs — timed-out
//     receives, tombstoned subtrees, parked adoption edges — before
//     returning.
//
// FaultPlan scripts crashes, slow links, and partitioned links per node
// for tests and the emulation harness; see its documentation for how each
// engine realizes the faults.
package tbon

import (
	"fmt"
	"sync"
	"time"

	"stat/internal/topology"
)

// Engine names one of the network's reduction evaluation strategies. The
// zero value is the pipelined worker-pool fold.
type Engine int

const (
	// EnginePipelined is the worker-pool fold with a gated in-flight
	// payload bound; see ReduceOptions.Workers and BudgetBytes.
	EnginePipelined Engine = iota
	// EngineConcurrent runs one goroutine per overlay process.
	EngineConcurrent
)

func (e Engine) String() string {
	switch e {
	case EnginePipelined:
		return "pipelined"
	case EngineConcurrent:
		return "concurrent"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ReduceOptions select and configure a reduction engine for ReduceWith.
type ReduceOptions struct {
	// Engine picks the evaluation strategy.
	Engine Engine
	// Workers bounds EnginePipelined's concurrency; <= 0 means
	// runtime.GOMAXPROCS(0). One worker is the sequential fold: leaves
	// are produced and folded strictly in post-order. Ignored by
	// EngineConcurrent.
	Workers int
	// BudgetBytes bounds the payload bytes EnginePipelined keeps resident
	// between production and folding. <= 0 bounds payloads instead of
	// bytes: at most one produced-but-unfolded payload per worker is
	// admitted ahead of the head of line. Either way the payload the
	// sequential fold would consume next is always admitted, so the
	// reduction cannot deadlock however small the bound, and each worker
	// may hold one more payload waiting for admission (its size is only
	// known once produced): the hard bound is BudgetBytes plus one
	// payload per worker, or about two payloads per worker by default.
	// Stats.PeakInFlightBytes reports the realized peak in bytes.
	// Ignored by EngineConcurrent.
	BudgetBytes int64
	// SubtreeTimeout bounds how long a node waits on any one child
	// subtree's payload (threaded through the transports' recv deadlines
	// under EngineConcurrent, and wrapped around leaf production under
	// EnginePipelined). Zero waits forever. A timeout surfaces as a
	// failed run unless Partial is set, in which case the subtree is
	// dropped and the reduction degrades.
	SubtreeTimeout time.Duration
	// Partial makes the reduction degrade instead of failing whole-run: a
	// child subtree that times out, crashes, or partitions is marked
	// missing (FilterCtx.Missing) and the surviving children still merge.
	// Filter logic errors remain fatal — only faults are tolerated. Under
	// EngineConcurrent a dead interior node's orphaned children are
	// re-parented onto a surviving sibling filter node (or onto the
	// parent itself when no sibling qualifies) before being declared lost.
	Partial bool
	// Faults scripts injected failures for this reduction — the
	// fault-injection harness. nil injects nothing.
	Faults *FaultPlan
	// WaitObserver, when non-nil, is called with the nanoseconds one
	// child payload spent blocked before its parent could take it — the
	// telemetry plane's reduce-wait span. EnginePipelined reports gate
	// admission time: how long a produced payload waited for the
	// in-flight bound to make room (zero-length for the head of line).
	// EngineConcurrent reports transport receive waits, which include
	// the child subtree's production time; compare its shape across
	// engines, not its totals. Called from engine goroutines
	// concurrently; must be cheap, non-blocking, and allocation-free.
	WaitObserver func(ns int64)
}

// LeafFunc supplies one leaf daemon's payload as a lease whose single
// reference transfers to the engine. A leaf that mints its payload from a
// pooled buffer hands the pool's Put as the lease's free hook and sees the
// buffer come back once the payload dies — the leased-buffer contract's
// leaf end.
type LeafFunc func(leaf int) (*Lease, error)

// wrapLeafBytes adapts a plain byte-slice leaf callback to the leased
// form: the returned buffer is wrapped in a hookless lease, exactly the
// ownership transfer the plain Reduce variants have always performed.
func wrapLeafBytes(leafData func(leaf int) ([]byte, error)) LeafFunc {
	return func(leaf int) (*Lease, error) {
		b, err := leafData(leaf)
		if err != nil {
			return nil, err
		}
		return NewLease(b, nil), nil
	}
}

// ReduceWith runs one upstream reduction under the selected engine. See
// the package documentation for the engine trade-offs.
func (n *Network) ReduceWith(opts ReduceOptions, leafData func(leaf int) ([]byte, error), filter Filter) ([]byte, *Stats, error) {
	return n.ReduceLeasedWith(opts, wrapLeafBytes(leafData), filter)
}

// ReduceLeasedWith is ReduceWith for leaves that produce leased payloads;
// see LeafFunc.
func (n *Network) ReduceLeasedWith(opts ReduceOptions, leaf LeafFunc, filter Filter) ([]byte, *Stats, error) {
	return n.ReduceNodeLeasedWith(opts, leaf, asNodeFilter(filter))
}

// ReduceNodeLeasedWith runs one upstream reduction through a
// position-aware NodeFilter — required for partial-result reductions,
// where the filter must know which children each input covers
// (FilterCtx) — with leaves that produce leased payloads; see LeafFunc.
func (n *Network) ReduceNodeLeasedWith(opts ReduceOptions, leaf LeafFunc, filter NodeFilter) ([]byte, *Stats, error) {
	switch opts.Engine {
	case EnginePipelined:
		return n.reducePipelined(leaf, filter, opts)
	case EngineConcurrent:
		return n.reduceConcurrent(leaf, filter, opts)
	}
	return nil, nil, fmt.Errorf("tbon: unknown reduction engine %d", int(opts.Engine))
}

// Filter combines the payloads received from a node's children into the
// payload forwarded to its parent. Inputs are ordered by child position.
// Interior nodes receive their children's outputs; the root's filter output
// is the reduction result.
//
// Children are leases owned by the engine: their bytes are valid for the
// duration of the call, and a filter retains any it needs longer. The
// output lease transfers to the engine; see the package documentation's
// buffer-lifetime contract. BytesFilter adapts plain []byte filters.
type Filter func(children []*Lease) (*Lease, error)

// Network is an overlay ready to run reductions and broadcasts over a
// fixed topology.
type Network struct {
	topo      *topology.Tree
	transport Transport
}

// New creates a network over the given topology. If transport is nil the
// in-process channel transport is used.
func New(topo *topology.Tree, transport Transport) *Network {
	if transport == nil {
		transport = ChannelTransport{}
	}
	return &Network{topo: topo, transport: transport}
}

// Topology returns the layout the network runs over.
func (n *Network) Topology() *topology.Tree { return n.topo }

// Stats records the traffic of one reduction or broadcast.
type Stats struct {
	// NodeInBytes is the total payload bytes a node received from below
	// (reduction) or above (broadcast).
	NodeInBytes map[int]int64
	// NodeOutBytes is the payload bytes a node sent to its parent
	// (reduction) or to all children (broadcast).
	NodeOutBytes map[int]int64
	// LevelInBytes[d] sums NodeInBytes over nodes at depth d.
	LevelInBytes []int64
	// Packets counts point-to-point messages.
	Packets int64
	// PeakInFlightBytes is the largest total of payload bytes buffered
	// between production and folding. Only EnginePipelined tracks it;
	// EngineConcurrent leaves it zero.
	PeakInFlightBytes int64
}

func newStats(levels int) *Stats {
	return &Stats{
		NodeInBytes:  make(map[int]int64),
		NodeOutBytes: make(map[int]int64),
		LevelInBytes: make([]int64, levels),
	}
}

// MaxInBytesAtLevel reports the largest single-node ingress at depth d.
func (s *Stats) MaxInBytesAtLevel(topo *topology.Tree, d int) int64 {
	var max int64
	for _, n := range topo.Levels[d] {
		if b := s.NodeInBytes[n.ID]; b > max {
			max = b
		}
	}
	return max
}

type result struct {
	data *Lease
	err  error
}

func (n *Network) reduceConcurrent(leaf LeafFunc, filter NodeFilter, opts ReduceOptions) ([]byte, *Stats, error) {
	stats := newStats(len(n.topo.Levels))
	var mu sync.Mutex // guards stats
	plan, partial, timeout := opts.Faults, opts.Partial, opts.SubtreeTimeout

	record := func(node *topology.Node, in int64, out int64, packetsIn int64) {
		mu.Lock()
		if !node.IsLeaf() {
			// Only interior nodes have ingress; recording a zero for
			// leaves would leave map entries the other engines never
			// create, breaking stats comparability.
			stats.NodeInBytes[node.ID] += in
		}
		stats.NodeOutBytes[node.ID] += out
		stats.LevelInBytes[node.Level] += in
		stats.Packets += packetsIn
		mu.Unlock()
	}

	// Build one connection per edge. Parent end index i corresponds to
	// child i, preserving deterministic input order for the filter. A
	// link fault in the plan wraps both ends of the child's uplink edge.
	type edge struct{ parentEnd, childEnd Conn }
	conns := make(map[int]edge) // keyed by child node ID
	var closers []Conn
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	var connect func(node *topology.Node) error
	connect = func(node *topology.Node) error {
		for _, c := range node.Children {
			pe, ce, err := n.transport.Pair()
			if err != nil {
				return err
			}
			closers = append(closers, pe, ce)
			if d, cutLink := plan.slow(c.ID), plan.cut(c.ID); d > 0 || cutLink {
				pe = &faultConn{Conn: pe, delay: d, cut: cutLink}
				ce = &faultConn{Conn: ce, delay: d, cut: cutLink}
			}
			conns[c.ID] = edge{parentEnd: pe, childEnd: ce}
			if err := connect(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := connect(n.topo.Root); err != nil {
		return nil, stats, err
	}

	// A child subtree gathers its own children sequentially, each under
	// its own deadline, so the worst-case time for its payload to surface
	// is the sum of every edge's wait below it plus its own. The deadline
	// a parent applies to a child therefore scales with the child's
	// subtree size; with a flat deadline, a parent would give up exactly
	// when its child gives up on one slow grandchild, cascading a single
	// slow link into the loss of every subtree on the path to the root.
	subtreeWait := map[int]time.Duration{}
	if timeout > 0 {
		var size func(*topology.Node) int64
		size = func(nd *topology.Node) int64 {
			s := int64(1)
			for _, c := range nd.Children {
				s += size(c)
			}
			subtreeWait[nd.ID] = timeout * time.Duration(s)
			return s
		}
		size(n.topo.Root)
	}
	waitFor := func(nd *topology.Node) time.Duration { return subtreeWait[nd.ID] }

	// recvTimed applies the per-subtree deadline to one receive and
	// reports the blocked time as a reduce-wait observation.
	recvTimed := func(c Conn, wait time.Duration) (*Lease, error) {
		if wait > 0 {
			c.SetRecvDeadline(time.Now().Add(wait))
		}
		if opts.WaitObserver == nil {
			return c.Recv()
		}
		start := time.Now()
		l, err := c.Recv()
		opts.WaitObserver(time.Since(start).Nanoseconds())
		return l, err
	}

	// drainEdges recovers payloads stranded in transport buffers (a sender
	// completed, the receiver never consumed — a timed-out gather, a parked
	// adoption listener's unserved edge). Must run only after every node
	// goroutine has exited: the closed conns then hand back buffered
	// messages without blocking, and every recovered lease's free hook runs
	// so pooled buffers are not silently lost.
	drainEdges := func() {
		for _, e := range conns {
			for {
				l, err := e.parentEnd.Recv()
				if err != nil {
					break
				}
				l.Release()
			}
			for {
				l, err := e.childEnd.Recv()
				if err != nil {
					break
				}
				l.Release()
			}
		}
	}

	// gatherOrphans collects a dead node's children and merges them with
	// the filter on the dead node's behalf — the re-parenting primitive,
	// run either by an adopting sibling or by the dead node's parent.
	// Orphans that are themselves dead are reported missing; the second
	// return is false when nothing at all was recovered or the filter
	// failed. The caller owns the returned payload.
	gatherOrphans := func(dead *topology.Node) (*Lease, int64, bool) {
		inputs := make([]*Lease, 0, len(dead.Children))
		spans := make([]Span, 0, len(dead.Children))
		var missing []int
		var in int64
		for i, o := range dead.Children {
			l, err := recvTimed(conns[o.ID].parentEnd, waitFor(o))
			if err != nil {
				missing = append(missing, i)
				continue
			}
			in += int64(l.Len())
			inputs = append(inputs, l)
			spans = append(spans, Span{i, i + 1})
		}
		if len(inputs) == 0 {
			return nil, 0, false
		}
		ctx := &FilterCtx{Node: dead, Spans: spans, Missing: missing}
		out, err := filter(ctx, inputs)
		for _, l := range inputs {
			l.Release()
		}
		if err != nil {
			return nil, in, false
		}
		return out, in, true
	}

	// nodesByID resolves adoption orders; only partial mode pays for it.
	var nodesByID map[int]*topology.Node
	if partial {
		nodesByID = make(map[int]*topology.Node)
		for _, lvl := range n.topo.Levels {
			for _, node := range lvl {
				nodesByID[node.ID] = node
			}
		}
	}

	// listenAdopt is an interior node's post-send phase in partial mode:
	// it serves adoption orders arriving on its own uplink's downstream
	// direction until the front end tears the overlay down. The reply is
	// a status message, then the adoption payload when the gather
	// recovered anything.
	listenAdopt := func(node *topology.Node) {
		ce := conns[node.ID].childEnd
		ce.SetRecvDeadline(time.Time{})
		for {
			msg, err := ce.Recv()
			if err != nil {
				return
			}
			deadID, ok := decodeAdoptOrder(msg.Bytes())
			msg.Release()
			if !ok {
				continue
			}
			var payload *Lease
			if dead := nodesByID[deadID]; dead != nil {
				payload, _, _ = gatherOrphans(dead)
			}
			if payload == nil {
				if ce.Send(encodeAdoptReply(false)) != nil {
					return
				}
				continue
			}
			record(node, int64(payload.Len()), 0, int64(len(nodesByID[deadID].Children)))
			if ce.Send(encodeAdoptReply(true)) != nil {
				payload.Release()
				return
			}
			if ce.Send(payload) != nil {
				return
			}
		}
	}

	// adoptChild recovers a dead interior child's subtree: the first
	// surviving interior sibling is ordered to adopt the orphans; with no
	// such sibling the parent gathers them itself. One delegate only — a
	// failed delegation must not cascade into concurrent consumers of the
	// orphan connections.
	adoptChild := func(parent *topology.Node, pos int, payloads []*Lease) (*Lease, int64) {
		dead := parent.Children[pos]
		var sib *topology.Node
		for j, s := range parent.Children {
			if j != pos && payloads[j] != nil && !s.IsLeaf() {
				sib = s
				break
			}
		}
		// The delegate needs time to collect every orphan subtree —
		// each under its own scaled deadline — before its reply can
		// arrive, so it gets the dead node's whole subtree allowance.
		wait := waitFor(dead)
		if sib == nil {
			out, in, ok := gatherOrphans(dead)
			if !ok {
				return nil, 0
			}
			return out, in
		}
		pe := conns[sib.ID].parentEnd
		if pe.Send(encodeAdoptOrder(dead.ID)) != nil {
			return nil, 0
		}
		st, err := recvTimed(pe, wait)
		if err != nil {
			return nil, 0
		}
		ok, valid := decodeAdoptReply(st.Bytes())
		st.Release()
		if !valid || !ok {
			return nil, 0
		}
		pl, err := recvTimed(pe, wait)
		if err != nil {
			return nil, 0
		}
		return pl, int64(pl.Len())
	}

	// gatherNode runs one interior node's receive/merge step. A non-nil
	// error is fatal (filter logic errors stay loud even in partial
	// mode); a nil, nil return is a silent death — every subtree below
	// was lost, and the parent's own deadline will account for it.
	gatherNode := func(node *topology.Node) (*Lease, error) {
		payloads := make([]*Lease, len(node.Children))
		releaseAll := func() {
			for i, p := range payloads {
				if p != nil {
					p.Release()
					payloads[i] = nil
				}
			}
		}
		var in, packets int64
		deadCount := 0
		for i, c := range node.Children {
			l, err := recvTimed(conns[c.ID].parentEnd, waitFor(c))
			if err != nil {
				if !partial {
					releaseAll()
					return nil, fmt.Errorf("tbon: node %d recv from child %d: %w", node.ID, c.ID, err)
				}
				deadCount++
				continue
			}
			payloads[i] = l
			in += int64(l.Len())
			packets++
		}
		if !partial {
			packets = int64(len(node.Children))
		}
		var spans []Span
		var missing []int
		inputs := payloads
		if deadCount > 0 {
			// Re-parent dead interior children's orphans, then assemble
			// the surviving inputs in child-position order so
			// concatenation semantics (and the front end's rank
			// permutation) are preserved.
			for i, c := range node.Children {
				if payloads[i] != nil || c.IsLeaf() {
					continue
				}
				if adoptedPayload, adoptedBytes := adoptChild(node, i, payloads); adoptedPayload != nil {
					payloads[i] = adoptedPayload
					in += adoptedBytes
					packets++
					deadCount--
				}
			}
			inputs = make([]*Lease, 0, len(payloads))
			spans = make([]Span, 0, len(payloads))
			for i, p := range payloads {
				if p == nil {
					missing = append(missing, i)
					continue
				}
				inputs = append(inputs, p)
				spans = append(spans, Span{i, i + 1})
			}
			if len(inputs) == 0 {
				return nil, nil
			}
		}
		ctx := &FilterCtx{Node: node, Spans: spans, Missing: missing}
		out, err := filter(ctx, inputs)
		var outLen int64
		if err == nil {
			outLen = int64(out.Len())
		}
		record(node, in, outLen, packets)
		releaseAll()
		if err != nil {
			return nil, fmt.Errorf("tbon: filter at node %d: %w", node.ID, err)
		}
		return out, nil
	}

	// Each node runs as a goroutine: leaves produce, interior nodes gather
	// in child order, filter, and forward. Child leases are released once
	// the filter returns (a filter that needs the bytes longer retains
	// them); the output lease transfers to the transport on Send.
	var wg sync.WaitGroup
	rootCh := make(chan result, 1)
	run := func(node *topology.Node) {
		defer wg.Done()
		if plan.crashed(node.ID) {
			// A crashed node abandons its post without consuming its
			// children's payloads — they stay buffered in the orphan
			// edges for an adopter to recover. Closing the uplink is the
			// crash's only observable effect.
			if node.Parent == nil {
				rootCh <- result{err: fmt.Errorf("tbon: front end crashed by fault plan")}
				return
			}
			conns[node.ID].childEnd.Close()
			return
		}
		var out *Lease
		var err error
		if node.IsLeaf() {
			out, err = leaf(node.LeafIndex)
			if err != nil {
				err = fmt.Errorf("tbon: leaf %d: %w", node.LeafIndex, err)
			}
		} else {
			out, err = gatherNode(node)
		}
		if node.Parent == nil {
			if out == nil && err == nil {
				err = fmt.Errorf("tbon: no surviving subtree reached the front end")
			}
			rootCh <- result{data: out, err: err}
			return
		}
		if err != nil {
			conns[node.ID].childEnd.Close()
			if partial {
				if node.IsLeaf() {
					// A failing daemon is a fault, not a bug: die silently
					// and let the parent's deadline account for the loss.
					return
				}
				// Fatal (filter) error. The root may already have reported
				// a partial result, so the post must not block — a late
				// fatal after the run is decided is dropped at teardown.
				select {
				case rootCh <- result{err: err}:
				default:
				}
				return
			}
			rootCh <- result{err: err}
			return
		}
		if out == nil {
			// Partial mode: everything below was lost; die silently.
			conns[node.ID].childEnd.Close()
			return
		}
		if node.IsLeaf() {
			record(node, 0, int64(out.Len()), 0)
		}
		if serr := conns[node.ID].childEnd.Send(out); serr != nil {
			if !partial {
				rootCh <- result{err: fmt.Errorf("tbon: node %d send: %w", node.ID, serr)}
			}
			return
		}
		if partial && !node.IsLeaf() {
			listenAdopt(node)
		}
	}
	var spawn func(node *topology.Node)
	spawn = func(node *topology.Node) {
		wg.Add(1)
		go run(node)
		for _, c := range node.Children {
			spawn(c)
		}
	}
	spawn(n.topo.Root)

	// First result on rootCh decides: either the root's reduction value or
	// the first error raised anywhere in the tree. (In partial mode only
	// the root reports — fault-tolerant subtrees never post errors.)
	res := <-rootCh
	if res.err != nil {
		// Unblock any goroutines still waiting on closed peers, then
		// drain — releasing any leases riding on late results so their
		// free hooks run and pooled buffers are not silently lost.
		for _, c := range closers {
			c.Close()
		}
		go func() { wg.Wait(); close(rootCh) }()
		for late := range rootCh {
			if late.data != nil {
				late.data.Release()
			}
		}
		if res.data != nil {
			res.data.Release()
		}
		drainEdges()
		return nil, stats, res.err
	}
	if partial {
		// Success-path sweep: adoption listeners are still parked on
		// their uplinks, and dropped subtrees may have left payloads
		// buffered in edges nobody consumed (a child that sent just as
		// its parent's deadline expired). Tear the overlay down, wait
		// the goroutines out, and drain every edge in both directions so
		// no lease outlives the reduction.
		for _, c := range closers {
			c.Close()
		}
		wg.Wait()
		drainEdges()
		// A fatal error posted after the root's result was consumed.
		select {
		case late := <-rootCh:
			if late.data != nil {
				late.data.Release()
			}
		default:
		}
	} else {
		wg.Wait()
	}
	// Ownership of the result bytes passes to the caller: the root lease
	// is retired without recycling, so the slice stays valid indefinitely.
	b := res.data.Bytes()
	res.data.retire()
	return b, stats, nil
}

// Broadcast sends data from the front end to every daemon and returns the
// payload observed at each leaf (by leaf index) with traffic stats. Used by
// the SBRS binary relocation service.
func (n *Network) Broadcast(data []byte) ([][]byte, *Stats, error) {
	stats := newStats(len(n.topo.Levels))
	out := make([][]byte, n.topo.NumLeaves())
	var rec func(node *topology.Node, payload []byte)
	rec = func(node *topology.Node, payload []byte) {
		if node.Level > 0 {
			stats.NodeInBytes[node.ID] += int64(len(payload))
			stats.LevelInBytes[node.Level] += int64(len(payload))
			stats.Packets++
		}
		if node.IsLeaf() {
			out[node.LeafIndex] = payload
			return
		}
		stats.NodeOutBytes[node.ID] = int64(len(payload)) * int64(len(node.Children))
		for _, c := range node.Children {
			rec(c, payload)
		}
	}
	rec(n.topo.Root, data)
	return out, stats, nil
}
