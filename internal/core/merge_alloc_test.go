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

// mergeFilter returns the tree-merge filter for the configured
// representation, operating on leased encodeTrees bodies: the treeMerger
// body encode wrapped in a pooled output lease. The output body carries
// the LOWEST wire version seen among the children — the min-merge rule.
// In a homogeneous session (the common case) every child agrees after
// negotiation and the version simply propagates; in a mixed-version fleet
// (per-daemon caps) a v2-capped daemon's subtree downgrades every merge
// on its path to the root, while disjoint subtrees keep shipping v3 until
// the join — mirroring how the ack merge's minimum carries the negotiated
// session version upward.
func (m *merger) mergeFilter() tbon.Filter {
	merge := m.treeMerger()
	return func(children []*tbon.Lease) (*tbon.Lease, error) {
		version := uint8(0)
		for _, c := range children {
			v, err := bodyWireVersion(c.Bytes())
			if err != nil {
				return nil, err
			}
			if version == 0 || v < version {
				version = v
			}
		}
		body, err := merge(children, 0, version, nil)
		if err != nil {
			return nil, err
		}
		return tbon.NewLease(body, recycleOutBuf), nil
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

// TestResultFilterCycleZeroAllocs guards the actual production path — the
// session's resultFilter, which unwraps MsgResult packets into sub-leases,
// runs the tree merger, and frames the output by writing the packet
// header in place in the pooled buffer. It too must be allocation-free at
// steady state, modulo the small fixed per-call slices (bodies, sub-lease
// structs) that the lease pool absorbs.
func TestResultFilterCycleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	filter := newAllocTool(t, Hierarchical).merge.resultFilter(false)
	inner := buildFilterChildren(t, true, trace.WireV2)
	children := make([]*tbon.Lease, len(inner))
	for i, b := range inner {
		p := proto.Packet{Stream: proto.DataStream, Type: proto.MsgResult, Version: 2, Payload: b.Bytes()}
		children[i] = tbon.NewLease(p.Encode(), nil)
		b.Release()
	}
	cycle := func() {
		out, err := filter(nil, children)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	// The bodies slice and release closure in resultFilter are the only
	// per-call allocations left; they are O(children), not O(payload).
	if n := testing.AllocsPerRun(200, cycle); n > 3 {
		t.Errorf("steady-state result-packet filter cycle allocates %v per op, want <= 3", n)
	}
	for _, c := range children {
		c.Release()
	}
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
