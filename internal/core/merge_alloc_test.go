package core

import (
	"errors"
	"fmt"
	"testing"

	"stat/internal/bitvec"
	"stat/internal/machine"
	"stat/internal/proto"
	"stat/internal/tbon"
	"stat/internal/topology"
	"stat/internal/trace"
)

// mergeFilter returns the tree merge for the configured representation
// as a byte Filter over bare encodeTrees bodies: each call takes a fresh
// accumulator through the production merge and encode (foldAcc), so under
// ReduceWith a node's every call after the first re-decodes the previous
// output as its first input. The output body carries the LOWEST wire
// version seen among the children — the min-merge rule. In a homogeneous
// session (the common case) every child agrees after negotiation and the
// version simply propagates; in a mixed-version fleet (per-daemon caps) a
// v2-capped daemon's subtree downgrades every merge on its path to the
// root, while disjoint subtrees keep shipping v3 until the join —
// mirroring how the ack merge's minimum carries the negotiated session
// version upward.
func (m *merger) mergeFilter() tbon.Filter {
	return func(children []*tbon.Lease) (*tbon.Lease, error) {
		a := foldAccPool.Get().(*foldAcc)
		defer a.release()
		for _, c := range children {
			v, err := bodyWireVersion(c.Bytes())
			if err != nil {
				return nil, err
			}
			if err := a.add(c.Bytes(), c, v, false); err != nil {
				return nil, err
			}
		}
		if err := m.merge(a); err != nil {
			return nil, err
		}
		body, err := a.encode(0, false)
		if err != nil {
			return nil, err
		}
		return tbon.NewLease(body, recycleOutBuf), nil
	}
}

// foldEmit drives f over one interior node's children the way the engine
// does: Fold calls of up to per children each into the live accumulator,
// then one Emit. per 1 is the one-worker fold, len(children) a whole
// child row in one call.
func foldEmit(f tbon.NodeFilter, children []*tbon.Lease, per int) (*tbon.Lease, error) {
	var acc any
	for i := 0; i < len(children); i += per {
		var err error
		if acc, err = f.Fold(nil, acc, children[i:min(i+per, len(children))]); err != nil {
			if acc != nil {
				f.Drop(acc)
			}
			return nil, err
		}
	}
	return f.Emit(nil, acc)
}

// resultChildren encodes k gather reply packets the way daemons produce
// them — a 2D+3D tree pair each, as whole trees or delta frames — under
// the mode's label layout: job-width labels over disjoint rank ranges in
// Original mode, ragged local widths in Hierarchical mode.
func resultChildren(t testing.TB, mode BitVecMode, delta bool, version uint8, k int) []*tbon.Lease {
	t.Helper()
	width := func(ci int) int { return 5 + 3*(ci%2) }
	total := 0
	for ci := 0; ci < k; ci++ {
		total += width(ci)
	}
	typ := proto.MsgResult
	if delta {
		typ = proto.MsgDelta
	}
	children := make([]*tbon.Lease, k)
	base := 0
	for ci := range children {
		n, off := width(ci), 0
		if mode == Original {
			n, off = total, base
		}
		t2, t3 := trace.NewTree(n), trace.NewTree(n)
		for task := off; task < off+width(ci); task++ {
			t2.AddStack(task, "main", "solve", "mpi_wait")
			t2.AddStack(task, "main", "io")
			t3.AddStack(task, "main", "solve", "mpi_wait")
			t3.AddStack(task, "main", "solve", "barrier")
		}
		base += width(ci)
		body, err := encodeFramesInto(nil, version, delta, t2, t3)
		if err != nil {
			t.Fatal(err)
		}
		t2.Release()
		t3.Release()
		p := proto.Packet{Stream: proto.DataStream, Type: typ, Version: version, Payload: body}
		children[ci] = tbon.NewLease(p.Encode(), nil)
	}
	return children
}

// foldCycleZeroAllocs asserts that a warm interior node — k children
// folded into a live accumulator, one by one and as a whole row, then
// one Emit — touches the heap zero times.
func foldCycleZeroAllocs(t *testing.T, mode BitVecMode, delta bool, version uint8) {
	t.Helper()
	const k = 4
	filter := newAllocTool(t, mode).merge.resultFilter(false)
	children := resultChildren(t, mode, delta, version, k)
	for _, per := range []int{1, k} {
		cycle := func() {
			out, err := foldEmit(filter, children, per)
			if err != nil {
				t.Fatal(err)
			}
			out.Release()
		}
		// Warm every pool on the path: codec free lists, arena slabs,
		// intern table, output buffer pool, lease pool, accumulators.
		for i := 0; i < 10; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Errorf("%v v%d delta=%v: warm node folding %d children %d per call allocates %v per op, want 0",
				mode, version, delta, k, per, n)
		}
	}
	for _, c := range children {
		c.Release()
	}
}

// bodyWireVersion sniffs which framing a tree-list body uses. The
// layouts are self-evident: the tree magic sits at a fixed offset per
// version, and an empty body is distinguished by the v2 count padding.
// An empty v3 body is byte-identical to an empty v2 body and reports 2 —
// harmless, since with no trees the two framings are the same bytes and
// gather payloads always carry at least one tree. Delta bodies (the same
// framing carrying "STD" frames) are rejected here; use bodyFrameInfo
// where both kinds are admissible.
func bodyWireVersion(b []byte) (uint8, error) {
	v, delta, err := bodyFrameInfo(b)
	if err != nil {
		return 0, err
	}
	if delta {
		return 0, errors.New("core: delta frames in a whole-tree payload")
	}
	return v, nil
}

// buildFilterChildren encodes two child payloads (each the usual 2D+3D
// tree pair) the way daemons produce them, under the given wire version,
// returned as leases the caller owns across filter invocations.
func buildFilterChildren(t testing.TB, hierarchical bool, version uint8) []*tbon.Lease {
	t.Helper()
	children := make([]*tbon.Lease, 2)
	for ci := range children {
		width := 5 + ci*3 // ragged widths
		total := width
		if !hierarchical {
			total = 16
		}
		t2, t3 := trace.NewTree(total), trace.NewTree(total)
		for local := 0; local < width; local++ {
			task := local
			if !hierarchical {
				task = ci*8 + local
			}
			t2.AddStack(task, "main", "solve", "mpi_wait")
			t2.AddStack(task, "main", "io")
			t3.AddStack(task, "main", "solve", "mpi_wait")
			t3.AddStack(task, "main", "solve", "barrier")
		}
		body, err := encodeTrees(version, t2, t3)
		if err != nil {
			t.Fatal(err)
		}
		t2.Release()
		t3.Release()
		children[ci] = tbon.NewLease(body, nil)
	}
	return children
}

func newAllocTool(t testing.TB, mode BitVecMode) *Tool {
	t.Helper()
	tool, err := New(Options{
		Machine:  machine.Atlas(),
		Tasks:    96,
		Topology: topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		BitVec:   mode,
		Samples:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tool
}

// TestFilterCycleZeroAllocs is the acceptance guard for the leased-buffer
// refactor: one full decode→merge→encode filter cycle in hierarchical
// mode, on a warm codec, must not touch the heap at all — under both live
// wire versions. Decode aliases or arena-carves every label, nodes and tree
// headers cycle through the codec free lists, the merge output routes
// through the codec arena, the encode writes into a pooled buffer, and
// the output lease comes from the lease pool.
func TestFilterCycleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	for _, version := range []uint8{trace.WireV2, trace.WireV3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			filter := newAllocTool(t, Hierarchical).merge.mergeFilter()
			children := buildFilterChildren(t, true, version)

			cycle := func() {
				out, err := filter(children)
				if err != nil {
					t.Fatal(err)
				}
				out.Release()
			}
			// Warm every pool on the path: codec free lists, arena slabs,
			// intern table, output buffer pool, lease pool.
			for i := 0; i < 10; i++ {
				cycle()
			}
			if n := testing.AllocsPerRun(200, cycle); n != 0 {
				t.Errorf("steady-state hierarchical filter cycle allocates %v per op, want 0", n)
			}
			for _, c := range children {
				c.Release()
			}
		})
	}
}

// TestFilterCycleAliasRate pins the STR2 alignment guarantee through the
// production filter: on a v2 or v3 stream every label passes the
// zero-copy decode's alignment check (a 100% alias rate, misses exactly
// zero), while the same bodies placed one byte off word alignment in
// memory must record misses, proving the counter distinguishes the
// silent fallback from a hit.
func TestFilterCycleAliasRate(t *testing.T) {
	if !bitvec.HostLittleEndian() {
		t.Skip("zero-copy decode only aliases on little-endian hosts")
	}
	run := func(version uint8, misalign bool) (hits, misses int64) {
		tool := newAllocTool(t, Hierarchical)
		filter := tool.merge.mergeFilter()
		children := buildFilterChildren(t, true, version)
		if misalign {
			for i, c := range children {
				buf := make([]byte, c.Len()+1)[1:]
				copy(buf, c.Bytes())
				c.Release()
				children[i] = tbon.NewLease(buf, nil)
			}
		}
		out, err := filter(children)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
		for _, c := range children {
			c.Release()
		}
		return tool.merge.aliasHits.Load(), tool.merge.aliasMisses.Load()
	}
	for _, version := range []uint8{trace.WireV2, trace.WireV3} {
		hits, misses := run(version, false)
		if misses != 0 {
			t.Errorf("v%d stream recorded %d alias misses, want 0 (hits %d)", version, misses, hits)
		}
		if hits == 0 {
			t.Errorf("v%d stream recorded no alias hits", version)
		}
	}
	if _, misses := run(trace.WireV2, true); misses == 0 {
		t.Error("misaligned bodies recorded no alias misses; the miss counter is not observing the fallback")
	}
}

// TestResultFilterCycleZeroAllocs guards the actual production path —
// the session's resultFilter, which unwraps MsgResult packets, folds
// their trees into the node's live accumulator and, at Emit, frames the
// output by writing the packet header in place in the pooled buffer. A
// warm node must not touch the heap in either representation, whether
// its children fold one per call or all at once.
func TestResultFilterCycleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		foldCycleZeroAllocs(t, mode, false, trace.WireV2)
	}
	foldCycleZeroAllocs(t, Hierarchical, false, trace.WireV3)
}

// BenchmarkFilterCycle is the per-interior-node cost of a reduction: one
// decode→merge→encode cycle through the production filter on a warm
// codec. The hierarchical/original cases run their negotiated defaults
// (v3 compressed and v2 dense STR trees respectively); the explicit v2
// hierarchical case keeps the dense format measurable against v3. Gated
// in CI by cmd/benchgate against the committed baseline.
func BenchmarkFilterCycle(b *testing.B) {
	for _, tc := range []struct {
		name    string
		mode    BitVecMode
		version uint8
	}{
		{"hierarchical", Hierarchical, trace.WireV3},
		{"original", Original, trace.WireV2},
		{"hierarchical-v2", Hierarchical, trace.WireV2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			filter := newAllocTool(b, tc.mode).merge.mergeFilter()
			children := buildFilterChildren(b, tc.mode == Hierarchical, tc.version)
			var bytes int64
			for _, c := range children {
				bytes += int64(c.Len())
			}
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := filter(children)
				if err != nil {
					b.Fatal(err)
				}
				out.Release()
			}
			b.StopTimer()
			for _, c := range children {
				c.Release()
			}
		})
	}
}

// TestFilterCycleOriginalModeAllocsBounded keeps the original (union)
// representation honest too: it cannot be zero-alloc — the in-place union
// inserts fresh nodes and full-width labels for paths the accumulator
// lacks — but the decode and encode sides share the leased-buffer
// machinery, so the per-cycle count must stay small and flat rather than
// scaling with tree size.
func TestFilterCycleOriginalModeAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	filter := newAllocTool(t, Original).merge.mergeFilter()
	children := buildFilterChildren(t, false, trace.WireV2)
	cycle := func() {
		out, err := filter(children)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n > 8 {
		t.Errorf("steady-state original-mode filter cycle allocates %v per op, want <= 8", n)
	}
	for _, c := range children {
		c.Release()
	}
}
