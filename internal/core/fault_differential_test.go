package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"stat/internal/bitvec"
	"stat/internal/machine"
	"stat/internal/tbon"
	"stat/internal/topology"
	"stat/internal/trace"
)

// faultCaseOpts builds one differential configuration. BGL topologies run
// on the BG/L machine model (co-processor mode); everything else on Atlas.
func faultCaseOpts(topo topology.Spec, mode BitVecMode, wire uint8, engine testEngine) Options {
	opts := Options{
		Machine:     machine.Atlas(),
		Tasks:       64,
		Topology:    topo,
		BitVec:      mode,
		Samples:     2,
		WireVersion: wire,
	}
	engine.apply(&opts)
	if topo.Kind == topology.KindBGL2Deep || topo.Kind == topology.KindBGL3Deep {
		opts.Machine = machine.BGL()
		opts.Mode = machine.CO
		opts.BGLPatched = true
		opts.Tasks = 512
	}
	return opts
}

func mustMerge(t *testing.T, opts Options) *Result {
	t.Helper()
	tool, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := tool.MeasureMerge()
	if err != nil {
		t.Fatalf("MeasureMerge: %v", err)
	}
	if res.MergeErr != nil {
		t.Fatalf("merge: %v", res.MergeErr)
	}
	return res
}

// TestFaultFreeDifferential: turning fault tolerance on without injecting
// any fault must not change the result by a single byte, across topology
// families, both representations, both live wire versions, and all
// engines.
func TestFaultFreeDifferential(t *testing.T) {
	type tc struct {
		name   string
		topo   topology.Spec
		engine testEngine
	}
	cases := []tc{
		{"flat", topology.Spec{Kind: topology.KindFlat}, seqEngine},
		{"flat", topology.Spec{Kind: topology.KindFlat}, pipelinedEngine},
		{"balanced2", topology.Spec{Kind: topology.KindBalanced, Depth: 2}, seqEngine},
		{"balanced2", topology.Spec{Kind: topology.KindBalanced, Depth: 2}, concurrentEngine},
		{"balanced2", topology.Spec{Kind: topology.KindBalanced, Depth: 2}, pipelinedEngine},
		{"bgl2deep", topology.Spec{Kind: topology.KindBGL2Deep}, seqEngine},
		{"bgl2deep", topology.Spec{Kind: topology.KindBGL2Deep}, pipelinedEngine},
	}
	for _, c := range cases {
		for _, mode := range []BitVecMode{Original, Hierarchical} {
			for _, wire := range []uint8{trace.WireV2, trace.WireV3} {
				name := fmt.Sprintf("%s/%v/%s/v%d", c.name, c.engine, mode, wire)
				t.Run(name, func(t *testing.T) {
					plain := mustMerge(t, faultCaseOpts(c.topo, mode, wire, c.engine))
					ftOpts := faultCaseOpts(c.topo, mode, wire, c.engine)
					ftOpts.FaultTolerant = true
					ft := mustMerge(t, ftOpts)
					if ft.Liveness != nil || ft.MissingRanks != 0 {
						t.Fatalf("fault-free FT run degraded: liveness=%v missing=%d", ft.Liveness, ft.MissingRanks)
					}
					if !plain.Tree2D.Equal(ft.Tree2D) || !plain.Tree3D.Equal(ft.Tree3D) {
						t.Fatal("fault-tolerant mode changed a fault-free result")
					}
					// Byte-level identity of the serialized trees, not just
					// structural equality.
					a, err := encodeTrees(wire, plain.Tree2D, plain.Tree3D)
					if err != nil {
						t.Fatal(err)
					}
					b, err := encodeTrees(wire, ft.Tree2D, ft.Tree3D)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a, b) {
						t.Error("serialized trees differ between FT-on and FT-off")
					}
				})
			}
		}
	}
}

// crashPlan marks the given daemons (by leaf index) crashed in a fresh
// fault plan keyed by their topology node IDs.
func crashPlan(topo *topology.Tree, daemons ...int) *tbon.FaultPlan {
	plan := &tbon.FaultPlan{Crash: map[int]bool{}}
	for _, d := range daemons {
		plan.Crash[topo.Leaves[d].ID] = true
	}
	return plan
}

// survivorSet is the expected liveness after the given daemons die: every
// rank except those the tool maps onto the crashed daemons.
func survivorSet(tool *Tool, crashed ...int) *bitvec.Vector {
	live := bitvec.New(tool.opts.Tasks)
	dead := map[int]bool{}
	for _, d := range crashed {
		dead[d] = true
	}
	for d, ranks := range tool.TaskMap() {
		if dead[d] {
			continue
		}
		for _, r := range ranks {
			live.Set(r)
		}
	}
	return live
}

// TestFaultCrashDifferential: a faulty run's trees must equal the
// fault-free run's trees restricted (trace.Focus) to the surviving ranks,
// and the reported liveness must be exactly the survivors — under both
// representations and all three engines.
func TestFaultCrashDifferential(t *testing.T) {
	topoSpec := topology.Spec{Kind: topology.KindBalanced, Depth: 2}
	for _, engine := range allEngines {
		for _, mode := range []BitVecMode{Original, Hierarchical} {
			t.Run(fmt.Sprintf("%v/%s", engine, mode), func(t *testing.T) {
				baseline := mustMerge(t, faultCaseOpts(topoSpec, mode, 2, engine))

				opts := faultCaseOpts(topoSpec, mode, 2, engine)
				opts.FaultTolerant = true
				opts.SubtreeTimeout = 200 * time.Millisecond
				opts.GatherFaults = &tbon.FaultPlan{Crash: map[int]bool{}}
				tool, err := New(opts)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if tool.Daemons() < 3 {
					t.Fatalf("need >= 3 daemons, got %d", tool.Daemons())
				}
				// The plan is read at gather time, so it can be filled after
				// New resolves the topology (the CLI does the same dance).
				crashed := []int{1, tool.Daemons() - 1}
				for _, d := range crashed {
					opts.GatherFaults.Crash[tool.Topology().Leaves[d].ID] = true
				}
				res, err := tool.MeasureMerge()
				if err != nil {
					t.Fatalf("MeasureMerge: %v", err)
				}
				if res.MergeErr != nil {
					t.Fatalf("merge: %v", res.MergeErr)
				}

				want := survivorSet(tool, crashed...)
				if res.Liveness == nil {
					t.Fatal("crashed daemons but Liveness is nil")
				}
				if !res.Liveness.Equal(want) {
					t.Errorf("liveness %v, want %v", res.Liveness.Members(), want.Members())
				}
				if got := opts.Tasks - want.Count(); res.MissingRanks != got {
					t.Errorf("MissingRanks = %d, want %d", res.MissingRanks, got)
				}

				want2D, err := baseline.Tree2D.Focus(want)
				if err != nil {
					t.Fatal(err)
				}
				want3D, err := baseline.Tree3D.Focus(want)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Tree2D.Equal(want2D) {
					t.Error("degraded 2D tree != fault-free tree focused on survivors")
				}
				if !res.Tree3D.Equal(want3D) {
					t.Error("degraded 3D tree != fault-free tree focused on survivors")
				}
			})
		}
	}
}

// TestFaultBGLDaemonCrashAcceptance is the issue's acceptance scenario: a
// BG/L-topology run with daemons crashed mid-gather completes, and the
// liveness bitvec equals exactly the surviving ranks.
func TestFaultBGLDaemonCrashAcceptance(t *testing.T) {
	topoSpec := topology.Spec{Kind: topology.KindBGL2Deep}
	baseline := mustMerge(t, faultCaseOpts(topoSpec, Hierarchical, 2, concurrentEngine))

	opts := faultCaseOpts(topoSpec, Hierarchical, 2, concurrentEngine)
	opts.FaultTolerant = true
	opts.SubtreeTimeout = 200 * time.Millisecond
	opts.GatherFaults = &tbon.FaultPlan{Crash: map[int]bool{}}
	tool, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	crashed := []int{2, 5}
	if tool.Daemons() <= 5 {
		t.Fatalf("BGL run has only %d daemons", tool.Daemons())
	}
	for _, d := range crashed {
		opts.GatherFaults.Crash[tool.Topology().Leaves[d].ID] = true
	}
	res, err := tool.MeasureMerge()
	if err != nil {
		t.Fatalf("MeasureMerge: %v", err)
	}
	if res.MergeErr != nil {
		t.Fatalf("merge: %v", res.MergeErr)
	}
	want := survivorSet(tool, crashed...)
	if res.Liveness == nil || !res.Liveness.Equal(want) {
		t.Fatalf("liveness != exactly the surviving ranks (missing %d, want %d)",
			res.MissingRanks, opts.Tasks-want.Count())
	}
	want3D, err := baseline.Tree3D.Focus(want)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tree3D.Equal(want3D) {
		t.Error("degraded BGL tree != fault-free tree focused on survivors")
	}
}

// TestFaultAdoptionRecoversInteriorCrash: a crashed communication
// process's children are re-parented, so the run completes with no
// missing ranks and trees identical to the fault-free result — the crash
// is invisible in the output.
func TestFaultAdoptionRecoversInteriorCrash(t *testing.T) {
	topoSpec := topology.Spec{Kind: topology.KindBalanced, Depth: 2}
	baseline := mustMerge(t, faultCaseOpts(topoSpec, Hierarchical, 2, pipelinedEngine))

	opts := faultCaseOpts(topoSpec, Hierarchical, 2, pipelinedEngine)
	opts.FaultTolerant = true
	opts.SubtreeTimeout = 200 * time.Millisecond
	opts.GatherFaults = &tbon.FaultPlan{Crash: map[int]bool{}}
	tool, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	topo := tool.Topology()
	if len(topo.Levels) < 3 || len(topo.Levels[1]) == 0 {
		t.Skipf("topology too shallow for an interior crash: %d levels", len(topo.Levels))
	}
	opts.GatherFaults.Crash[topo.Levels[1][0].ID] = true
	res, err := tool.MeasureMerge()
	if err != nil {
		t.Fatalf("MeasureMerge: %v", err)
	}
	if res.MergeErr != nil {
		t.Fatalf("merge: %v", res.MergeErr)
	}
	if res.Liveness != nil || res.MissingRanks != 0 {
		t.Fatalf("adoption did not fully recover: %d ranks missing", res.MissingRanks)
	}
	if !res.Tree2D.Equal(baseline.Tree2D) || !res.Tree3D.Equal(baseline.Tree3D) {
		t.Error("recovered run differs from the fault-free result")
	}
}

// TestFaultCutPartitionDegrades: a partitioned (cut) link is
// indistinguishable from a crash at the result level — the subtree behind
// it is reported missing, not silently merged.
func TestFaultCutPartitionDegrades(t *testing.T) {
	topoSpec := topology.Spec{Kind: topology.KindBalanced, Depth: 2}
	opts := faultCaseOpts(topoSpec, Hierarchical, 2, seqEngine)
	opts.FaultTolerant = true
	opts.GatherFaults = &tbon.FaultPlan{CutLinks: map[int]bool{}}
	tool, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	opts.GatherFaults.CutLinks[tool.Topology().Leaves[0].ID] = true
	res, err := tool.MeasureMerge()
	if err != nil {
		t.Fatalf("MeasureMerge: %v", err)
	}
	if res.MergeErr != nil {
		t.Fatalf("merge: %v", res.MergeErr)
	}
	want := survivorSet(tool, 0)
	if res.Liveness == nil || !res.Liveness.Equal(want) {
		t.Fatal("cut link did not degrade to exactly the surviving ranks")
	}
}

// TestFaultLeaseBalance: induced failures must not strand payload leases —
// the engine-level sweep runs on every early return in core's gather too.
func TestFaultLeaseBalance(t *testing.T) {
	topoSpec := topology.Spec{Kind: topology.KindBalanced, Depth: 2}
	for _, engine := range allEngines {
		t.Run(engine.String(), func(t *testing.T) {
			opts := faultCaseOpts(topoSpec, Hierarchical, 2, engine)
			opts.FaultTolerant = true
			opts.SubtreeTimeout = 200 * time.Millisecond
			opts.GatherFaults = &tbon.FaultPlan{Crash: map[int]bool{}}
			tool, err := New(opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			opts.GatherFaults.Crash[tool.Topology().Leaves[1].ID] = true
			before := tbon.LiveLeases()
			if _, err := tool.MeasureMerge(); err != nil {
				t.Fatalf("MeasureMerge: %v", err)
			}
			if after := tbon.LiveLeases(); after != before {
				t.Errorf("%d leases live after degraded merge, %d before", after, before)
			}
		})
	}
}
