package tbon

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"stat/internal/topology"
)

// errSubtreeTimeout is the engines' uniform expiry error; it matches
// errors.Is(err, os.ErrDeadlineExceeded) just like a transport deadline.
var errSubtreeTimeout = fmt.Errorf("tbon: subtree timed out: %w", os.ErrDeadlineExceeded)

// FaultPlan scripts per-node failures injected into one reduction — the
// overlay's fault-injection harness. Every failure mode the paper's scale
// makes routine is reproducible from a plan: a daemon or communication
// process crashing mid-gather (Crash), a congested uplink (SlowLinks), and
// a partitioned uplink (CutLinks). Keys are topology node IDs; a fault on
// an interior node affects its whole subtree.
//
// How a fault surfaces depends on the engine. EngineConcurrent injects at
// the transport: a crashed node's goroutine closes its uplink without
// participating, a slow uplink delays every send, and a cut uplink
// swallows traffic in both directions so the parent's recv deadline is
// what detects it (plans with SlowLinks or CutLinks therefore need
// ReduceOptions.SubtreeTimeout set). EnginePipelined runs in process with
// no per-edge transport: Crash and CutLinks both drop the subtree
// synchronously, and SlowLinks delays leaf payload production, where the
// leaf-call timeout can turn it into a drop.
type FaultPlan struct {
	// Crash marks nodes that die before participating in the reduction.
	Crash map[int]bool
	// SlowLinks adds the given delay to each message sent on a node's
	// uplink (concurrent engine) or to the node's payload production
	// (EnginePipelined, leaves only).
	SlowLinks map[int]time.Duration
	// CutLinks partitions a node's uplink: traffic is silently lost in
	// both directions.
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

// dead reports whether the node's subtree cannot deliver a payload at all:
// the node crashed or its uplink is partitioned. Used by EnginePipelined,
// which surfaces both the same way.
func (p *FaultPlan) dead(id int) bool {
	return p.crashed(id) || p.cut(id)
}

// Span is a half-open range [From, To) of child positions at a node.
type Span struct{ From, To int }

// FilterCtx describes one NodeFilter call: where in the topology it runs
// and which children each input payload covers. Engines reuse FilterCtx
// values across calls — a filter must not retain the struct or its slices
// past the call.
type FilterCtx struct {
	// Node is the topology node the filter is merging at. In the normal
	// case it is the node whose children produced the inputs; during
	// orphan adoption it is the dead node whose children the adopter is
	// merging on its behalf.
	Node *topology.Node
	// Spans, when non-nil, gives the half-open range of Node.Children
	// positions input i covers — {i, i+1} for a fresh child payload,
	// {0, i} for an incremental fold's accumulator. nil means input i is
	// exactly child i's payload (the concurrent engine's full-row call).
	Spans []Span
	// Missing lists child positions whose subtrees delivered nothing —
	// timed out, crashed, partitioned, or unrecoverable after adoption.
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

// asNodeFilter adapts a position-blind Filter.
func asNodeFilter(f Filter) NodeFilter {
	return func(_ *FilterCtx, children []*Lease) (*Lease, error) {
		return f(children)
	}
}

// faultConn injects link faults on one end of an edge: a cut link swallows
// every send (the payload is released, the peer simply never hears it —
// detection is the receiver's deadline), a slow link sleeps before
// delivering. Recv and deadlines pass through untouched.
type faultConn struct {
	Conn
	delay time.Duration
	cut   bool
}

func (f *faultConn) Send(l *Lease) error {
	if f.cut {
		l.Release()
		return nil
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return f.Conn.Send(l)
}

// Adoption wire format, carried over the otherwise-unused downstream
// direction of the overlay's edges. An adoption order asks a surviving
// sibling to gather a dead node's orphaned children; the reply is a status
// message optionally followed by the adoption's merged payload.
const (
	adoptOrderLen  = 6 // 'A' 'D' u32 dead-node ID
	adoptReplyLen  = 3 // 'A' 'R' ok
	adoptReplyOK   = 1
	adoptReplyFail = 0
)

func encodeAdoptOrder(deadID int) *Lease {
	b := make([]byte, adoptOrderLen)
	b[0], b[1] = 'A', 'D'
	binary.LittleEndian.PutUint32(b[2:], uint32(deadID))
	return NewLease(b, nil)
}

// decodeAdoptOrder returns the dead node's ID, or ok=false if the message
// is not an adoption order.
func decodeAdoptOrder(b []byte) (int, bool) {
	if len(b) != adoptOrderLen || b[0] != 'A' || b[1] != 'D' {
		return 0, false
	}
	return int(binary.LittleEndian.Uint32(b[2:])), true
}

func encodeAdoptReply(ok bool) *Lease {
	status := byte(adoptReplyFail)
	if ok {
		status = adoptReplyOK
	}
	return NewLease([]byte{'A', 'R', status}, nil)
}

func decodeAdoptReply(b []byte) (ok bool, valid bool) {
	if len(b) != adoptReplyLen || b[0] != 'A' || b[1] != 'R' {
		return false, false
	}
	return b[2] == adoptReplyOK, true
}

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
