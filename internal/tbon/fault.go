package tbon

import (
	"fmt"
	"os"
	"time"

	"stat/internal/topology"
)

// errSubtreeTimeout is the engine's uniform expiry error; it matches
// errors.Is(err, os.ErrDeadlineExceeded).
var errSubtreeTimeout = fmt.Errorf("tbon: subtree timed out: %w", os.ErrDeadlineExceeded)

// FaultPlan scripts per-node failures injected into one reduction — the
// overlay's fault-injection harness. Every failure mode the paper's scale
// makes routine is reproducible from a plan: a daemon or communication
// process crashing mid-gather (Crash), a congested uplink (SlowLinks), and
// a partitioned uplink (CutLinks). Keys are topology node IDs.
//
// Without ReduceOptions.Partial any crashed or cut node fails the run.
// Under Partial:
//
//   - A crashed leaf delivers nothing: its position is missing at its
//     parent. A crashed interior node's children are re-parented — they
//     fold on the dead node's behalf (FilterCtx.Node is the dead node) and
//     the result is delivered at its position — so the crash loses
//     nothing. A crashed front end fails the run in every mode.
//   - A cut uplink drops the node's whole subtree: the partitioned node
//     consumed its children's payloads before its uplink failed, so
//     nothing behind it is recoverable.
//   - A slow uplink delays the node's payload on its way to the parent.
//     A delay beyond ReduceOptions.SubtreeTimeout drops the subtree after
//     the timeout, exactly like a partitioned one.
type FaultPlan struct {
	// Crash marks nodes that die before participating in the reduction.
	Crash map[int]bool
	// SlowLinks adds the given delay to the payload a node sends up its
	// uplink, leaf or interior.
	SlowLinks map[int]time.Duration
	// CutLinks partitions a node's uplink: its subtree's payload is lost.
	CutLinks map[int]bool
}

func (p *FaultPlan) crashed(id int) bool {
	return p != nil && p.Crash[id]
}

func (p *FaultPlan) cut(id int) bool {
	return p != nil && p.CutLinks[id]
}

func (p *FaultPlan) slow(id int) time.Duration {
	if p == nil {
		return 0
	}
	return p.SlowLinks[id]
}

// Span is a half-open range [From, To) of child positions at a node.
type Span struct{ From, To int }

// FilterCtx describes one NodeFilter call: where in the topology it runs
// and which children each input payload covers. The engine reuses
// FilterCtx values across calls — a filter must not retain the struct or
// its slices past the call.
type FilterCtx struct {
	// Node is the topology node whose children produced the inputs —
	// also when that node crashed and its orphans fold on its behalf.
	Node *topology.Node
	// Spans, when non-nil, gives the half-open range of Node.Children
	// positions input i covers — {i, i+1} for a fresh child payload,
	// {0, i} for the fold's accumulator. nil means input i is exactly
	// child i's payload.
	Spans []Span
	// Missing lists child positions whose subtrees delivered nothing —
	// timed out, crashed, partitioned, or behind a too-slow uplink.
	// Positions in Missing are excluded from whatever span contains them.
	// nil on a clean call, so a fault-free reduction pays nothing for the
	// machinery.
	Missing []int
}

// Incomplete reports whether the call is missing any child subtree.
func (c *FilterCtx) Incomplete() bool { return c != nil && len(c.Missing) > 0 }

// NodeFilter is a Filter that also sees the call's position in the
// topology and the liveness of its inputs (FilterCtx). It is how a filter
// emits partial results: when ctx.Missing is non-empty the inputs cover
// only the surviving children, and the filter's output should say so
// (core's result filter attaches an explicit liveness set). The lease
// contract is identical to Filter's.
type NodeFilter func(ctx *FilterCtx, children []*Lease) (*Lease, error)

// callLeafTimed runs a leaf callback under the subtree timeout. On expiry
// the call is abandoned: the watcher goroutine releases the late payload
// when (if) it arrives, so a slow leaf strands no lease. With no timeout
// the call is direct — the fault-free path spawns nothing.
func callLeafTimed(leaf LeafFunc, idx int, timeout time.Duration) (*Lease, error) {
	if timeout <= 0 {
		return leaf(idx)
	}
	type leafResult struct {
		l   *Lease
		err error
	}
	ch := make(chan leafResult, 1)
	go func() {
		l, err := leaf(idx)
		ch <- leafResult{l, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.l, r.err
	case <-timer.C:
		go func() {
			if r := <-ch; r.l != nil {
				r.l.Release()
			}
		}()
		return nil, errSubtreeTimeout
	}
}
