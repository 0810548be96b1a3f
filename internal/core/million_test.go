package core

import (
	"testing"

	"stat/internal/bitvec"
	"stat/internal/machine"
	"stat/internal/topology"
	"stat/internal/trace"
)

// TestMillionTaskSession is the scale target of the v3 wire format: a
// full merge phase over one million tasks on a 5x-scaled BG/L (8,192 VN
// daemons, balanced 3-deep tree — the paper's BGL3Deep rule tops out at
// 24 communication processes, whose 342-way leaf fan-in exceeds the
// login nodes' 192 limit at this scale) with a payload budget bounding
// in-flight memory. The session must complete, negotiate v3,
// account for every rank, and carry its labels predominantly as run
// containers — the per-node label bytes that make million-task trees
// affordable on the wire.
func TestMillionTaskSession(t *testing.T) {
	if testing.Short() {
		t.Skip("million-task session in -short mode")
	}
	const tasks = 1 << 20
	res, err := run1M(t, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MergeErr != nil {
		t.Fatalf("merge failed: %v", res.MergeErr)
	}
	if res.WireVersion != trace.WireV3 {
		t.Fatalf("session negotiated v%d, want v3", res.WireVersion)
	}
	if res.Tree2D == nil || res.Tree3D == nil {
		t.Fatal("missing merged trees")
	}
	if res.Tree2D.NumTasks != tasks {
		t.Fatalf("2D tree spans %d tasks, want %d", res.Tree2D.NumTasks, tasks)
	}
	if got := res.Tree2D.Root.Tasks.Count(); got != tasks {
		t.Fatalf("root label covers %d of %d tasks", got, tasks)
	}
	if res.MissingRanks != 0 {
		t.Fatalf("%d ranks missing from a fault-free gather", res.MissingRanks)
	}

	// The hang population's labels are long runs; the adaptive containers
	// must notice. Dense stragglers are fine (tiny subtree-local labels
	// where dense genuinely is smallest), dominance is not.
	ls := res.LabelStats
	if ls.Run == 0 {
		t.Fatal("v3 merge decoded no run containers")
	}
	if ls.Run < ls.Dense {
		t.Errorf("run containers (%d) should dominate dense (%d) in a run-structured population", ls.Run, ls.Dense)
	}

	// Sublinearity, per node: every run-dominated label of the merged
	// 1M-wide tree must encode at least 10x below its dense cost (the
	// root's full-job run is the extreme case), and such labels must be
	// the majority — the scattered progress-depth subsets are the only
	// populations allowed to stay at the dense floor.
	var runDominated, total int
	walk2D(res.Tree2D.Root, func(n *trace.Node) {
		total++
		dense, compressed := n.Tasks.SerializedSize(), bitvec.Label3Size(n.Tasks)
		if _, runs := n.Tasks.ContainerCounts(); runs <= 8 {
			runDominated++
			if dense < 10*compressed {
				t.Errorf("node %q: %d-run label encodes %d bytes vs %d dense, want >= 10x smaller",
					n.Frame.Function, runs, compressed, dense)
			}
		}
	})
	if runDominated*2 < total {
		t.Errorf("only %d of %d labels are run-dominated in the merged tree", runDominated, total)
	}

	// And end to end: the same session pinned to dense v2 labels must
	// cost strictly more front-end ingress, with identical trees.
	resDense, err := run1M(t, trace.WireV2)
	if err != nil {
		t.Fatal(err)
	}
	if resDense.MergeErr != nil {
		t.Fatalf("v2 merge failed: %v", resDense.MergeErr)
	}
	if !res.Tree2D.Equal(resDense.Tree2D) || !res.Tree3D.Equal(resDense.Tree3D) {
		t.Error("v3 and v2 sessions merged different trees")
	}
	if ratio := float64(resDense.FrontEndInBytes) / float64(res.FrontEndInBytes); ratio < 2 {
		t.Errorf("front-end ingress %d bytes under v3 vs %d dense: %.1fx, want >= 2x",
			res.FrontEndInBytes, resDense.FrontEndInBytes, ratio)
	}
}

// walk2D applies f preorder.
func walk2D(n *trace.Node, f func(*trace.Node)) {
	f(n)
	for _, c := range n.Children {
		walk2D(c, f)
	}
}

// run1M runs the million-task merge phase, pinned to the given wire
// version (0 = negotiate the maximum).
func run1M(t *testing.T, wire uint8) (*Result, error) {
	t.Helper()
	tool, err := New(Options{
		Machine:           machine.BGLScaled(5),
		Mode:              machine.VN,
		Tasks:             1 << 20,
		Topology:          topology.Spec{Kind: topology.KindBalanced, Depth: 3},
		BitVec:            Hierarchical,
		Samples:           2,
		ReduceBudgetBytes: 8 << 20,
		WireVersion:       wire,
	})
	if err != nil {
		return nil, err
	}
	return tool.MeasureMerge()
}
