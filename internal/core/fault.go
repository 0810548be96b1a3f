package core

import (
	"errors"
	"fmt"

	"stat/internal/bitvec"
	"stat/internal/proto"
	"stat/internal/tbon"
	"stat/internal/telemetry"
	"stat/internal/topology"
)

// coverage reports the set of MPI ranks a subtree's gather payload accounts
// for when the subtree is fully present: the union of the taskMap entries of
// its leaves. The liveness accounting of a partial merge rests on this — a
// full MsgResult from a child implies exactly coverage(child), so the merge
// can attribute ranks without decoding the trees. Vectors are computed
// lazily and cached per node; the cache is only touched when a fault
// actually occurs, so fault-free runs never pay for it. Cached vectors are
// read-only after insertion and safe to share across filter workers.
func (m *merger) coverage(n *topology.Node) *bitvec.Vector {
	m.covMu.Lock()
	defer m.covMu.Unlock()
	if v, ok := m.cov[n.ID]; ok {
		return v
	}
	v := bitvec.New(m.tasks)
	for _, leaf := range n.SubtreeLeaves(nil) {
		for _, r := range m.taskMap[leaf.LeafIndex] {
			v.Set(r)
		}
	}
	if m.cov == nil {
		m.cov = make(map[int]*bitvec.Vector)
	}
	m.cov[n.ID] = v
	return v
}

// posIn reports whether pos is one of the engine-reported missing child
// positions. Missing lists are tiny (bounded by one node's fanout), so a
// linear scan beats building a set.
func posIn(missing []int, pos int) bool {
	for _, m := range missing {
		if m == pos {
			return true
		}
	}
	return false
}

// mergePartial is resultFilter's degraded path, taken whenever this node's
// output cannot claim complete coverage: a child delivered a partial result,
// or the engine reported missing child subtrees. It computes the liveness
// set of the surviving ranks — explicit liveness from partial children,
// coverage-implied liveness from full children (their span's child
// positions, minus the positions reported missing) — and emits a
// MsgPartialResult whose payload carries the liveness ahead of the merged
// tree body (see proto.PutPartialPrefix for the framing). bodies arrive as
// payload sub-leases with any telemetry section already stripped by
// resultFilter (the section is the outermost trailer, outside the partial
// prefix), so the partial split below reads the body lease, not the raw
// packet; partial children are re-sliced to just their tree body before
// the merge. The caller's folded telemetry frame (tf, nil when the plane
// is off) passes through to the merger, which appends
// it to the degraded output exactly as on the fast path. Unlike the fast
// path this one allocates — it only runs when a fault already cost a
// subtree, so the zero-alloc contract stays a fault-free-path property.
func (m *merger) mergePartial(ctx *tbon.FilterCtx, children, bodies []*tbon.Lease,
	merge mergeFunc, version uint8, tf *telemetry.Frame) (*tbon.Lease, error) {

	release := func() {
		for _, b := range bodies {
			b.Release()
		}
	}
	live := bitvec.New(m.tasks)
	for i, c := range children {
		p, err := proto.Decode(c.Bytes())
		if err != nil {
			release()
			return nil, err
		}
		if p.Type == proto.MsgPartialResult {
			lv, body, err := proto.SplitPartialPayload(bodies[i].Bytes())
			if err != nil {
				release()
				return nil, err
			}
			childLive, _, err := bitvec.UnmarshalBinary(lv)
			if err != nil {
				release()
				return nil, err
			}
			if err := live.UnionWith(childLive); err != nil {
				release()
				return nil, err
			}
			sub := bodies[i].Sub(body)
			bodies[i].Release()
			bodies[i] = sub
			continue
		}
		// A full result implies complete coverage of every child position
		// its span covers, except the ones the engine reported missing.
		if ctx == nil || ctx.Node == nil {
			release()
			return nil, errors.New("core: partial result without filter context")
		}
		from, to := i, i+1
		if ctx.Spans != nil {
			from, to = ctx.Spans[i].From, ctx.Spans[i].To
		}
		for pos := from; pos < to; pos++ {
			if posIn(ctx.Missing, pos) {
				continue
			}
			if err := live.UnionWith(m.coverage(ctx.Node.Children[pos])); err != nil {
				release()
				return nil, err
			}
		}
	}
	lvBytes, err := live.MarshalBinary()
	if err != nil {
		release()
		return nil, err
	}
	prefix := proto.PartialPrefixLen(len(lvBytes))
	packet, err := merge(bodies, proto.HeaderSize+prefix, version, tf)
	release()
	if err != nil {
		return nil, err
	}
	proto.PutPartialPrefix(packet[proto.HeaderSize:], lvBytes)
	return mintPacket(packet, version, proto.MsgPartialResult), nil
}

// rankRemapperLive compiles the hierarchical remap for a partial gather. A
// degraded payload concatenates only the surviving subtrees' labels, still
// in leaf order, so the permutation lists the surviving daemons' ranks in
// that order and maps into the full job width (the Remapper is non-square).
// Daemons fail all-or-nothing in the fault model: a liveness set covering
// only part of a daemon's ranks means the liveness accounting itself is
// broken, and the remap refuses to guess.
func (m *merger) rankRemapperLive(live *bitvec.Vector) (*bitvec.Remapper, error) {
	perm := make([]int, 0, live.Count())
	for leaf, ranks := range m.taskMap {
		n := 0
		for _, r := range ranks {
			if live.Get(r) {
				n++
			}
		}
		switch n {
		case 0:
		case len(ranks):
			perm = append(perm, ranks...)
		default:
			return nil, fmt.Errorf("core: daemon %d liveness is torn: %d of %d ranks survive", leaf, n, len(ranks))
		}
	}
	return bitvec.NewRemapper(perm, m.tasks)
}
