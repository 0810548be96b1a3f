package core

import (
	"errors"
	"fmt"

	"stat/internal/bitvec"
	"stat/internal/proto"
	"stat/internal/tbon"
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

// posIn reports whether pos is one of the listed child positions —
// engine-reported missing ones, or partial children. The lists are tiny
// (bounded by one node's fanout), so a linear scan beats building a set.
func posIn(missing []int, pos int) bool {
	for _, m := range missing {
		if m == pos {
			return true
		}
	}
	return false
}

// takeLiveness folds a partial child's explicit liveness set into the
// accumulator, records the child's position, and returns the tree body
// behind the liveness prefix (see proto.PutPartialPrefix). Like the rest
// of the degraded path it allocates: it only runs once a fault has cost a
// subtree, so the zero-alloc contract stays a fault-free-path property.
func (m *merger) takeLiveness(a *foldAcc, pos int, body []byte) ([]byte, error) {
	lv, body, err := proto.SplitPartialPayload(body)
	if err != nil {
		return nil, err
	}
	childLive, _, err := bitvec.UnmarshalBinary(lv)
	if err != nil {
		return nil, err
	}
	if a.live == nil {
		a.live = bitvec.New(m.tasks)
	}
	a.partials = append(a.partials, pos)
	return body, a.live.UnionWith(childLive)
}

// liveness builds a degraded node's liveness set, once, at Emit, and
// marshals it for the MsgPartialResult prefix: the partial children's
// explicit liveness plus the coverage of every other child position not
// reported missing, since a full result implies exactly its subtree's
// coverage.
func (m *merger) liveness(ctx *tbon.FilterCtx, a *foldAcc) ([]byte, error) {
	if ctx == nil || ctx.Node == nil {
		return nil, errors.New("core: partial result without filter context")
	}
	live := a.live
	if live == nil {
		live = bitvec.New(m.tasks)
	}
	for pos, child := range ctx.Node.Children {
		if !posIn(ctx.Missing, pos) && !posIn(a.partials, pos) {
			if err := live.UnionWith(m.coverage(child)); err != nil {
				return nil, err
			}
		}
	}
	return live.MarshalBinary()
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
