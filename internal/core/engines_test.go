package core

import (
	"strings"
	"testing"

	"stat/internal/machine"
	"stat/internal/tbon"
	"stat/internal/topology"
)

// testEngine is one reduction-engine configuration the core differentials
// sweep. "seq" is one worker: the pairwise sequential fold every other
// configuration must match byte for byte. "pipelined" is the default pool.
// "concurrent" has as much in flight as the engine allows — eight workers
// under a budget no test session reaches, so no producer waits and every
// comm process folds all its children in one filter call.
type testEngine struct {
	name    string
	workers int
	budget  int64
}

func (e testEngine) String() string { return e.name }

// apply selects the engine configuration on o.
func (e testEngine) apply(o *Options) {
	o.ReduceWorkers, o.ReduceBudgetBytes = e.workers, e.budget
}

// reduceOpts is the engine configuration as tbon options, for tests that
// drive a reduction directly.
func (e testEngine) reduceOpts() tbon.ReduceOptions {
	return tbon.ReduceOptions{Workers: e.workers, BudgetBytes: e.budget}
}

var (
	seqEngine        = testEngine{"seq", 1, 0}
	concurrentEngine = testEngine{"concurrent", 8, 1 << 30}
	pipelinedEngine  = testEngine{"pipelined", 0, 0}
	allEngines       = []testEngine{seqEngine, concurrentEngine, pipelinedEngine}
)

// TestMergeEnginesAgree runs the full tool merge phase under every
// reduction engine and representation and requires identical analysis
// results: same trees, same traffic statistics. This is the end-to-end
// differential check — everything below the reduction options (session
// protocol, daemons, trace merges, remap) must be invariant under them.
func TestMergeEnginesAgree(t *testing.T) {
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		newTool := func(engine testEngine) *Tool {
			opts := Options{
				Machine:  machine.Atlas(),
				Tasks:    96,
				Topology: topology.Spec{Kind: topology.KindBalanced, Depth: 2},
				BitVec:   mode,
				Samples:  3,
			}
			engine.apply(&opts)
			tool, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			return tool
		}
		base, err := newTool(seqEngine).MeasureMerge()
		if err != nil {
			t.Fatalf("%v/seq: %v", mode, err)
		}
		if base.MergeErr != nil {
			t.Fatalf("%v/seq: %v", mode, base.MergeErr)
		}
		for _, tc := range []testEngine{
			concurrentEngine,
			pipelinedEngine,
			{"pipelined-w4", 4, 0},
			{"pipelined-64KiB", 0, 64 << 10},
			{"pipelined-1B", 0, 1},
		} {
			res, err := newTool(tc).MeasureMerge()
			if err != nil {
				t.Fatalf("%v/%s: %v", mode, tc.name, err)
			}
			if res.MergeErr != nil {
				t.Fatalf("%v/%s: %v", mode, tc.name, res.MergeErr)
			}
			if !res.Tree2D.Equal(base.Tree2D) {
				t.Errorf("%v/%s: 2D tree differs from seq", mode, tc.name)
			}
			if !res.Tree3D.Equal(base.Tree3D) {
				t.Errorf("%v/%s: 3D tree differs from seq", mode, tc.name)
			}
			if res.FrontEndInBytes != base.FrontEndInBytes {
				t.Errorf("%v/%s: front-end ingress %d, seq %d",
					mode, tc.name, res.FrontEndInBytes, base.FrontEndInBytes)
			}
			if res.MaxLeafPayloadBytes != base.MaxLeafPayloadBytes {
				t.Errorf("%v/%s: max leaf payload %d, seq %d",
					mode, tc.name, res.MaxLeafPayloadBytes, base.MaxLeafPayloadBytes)
			}
			if res.MergeStats.Packets != base.MergeStats.Packets {
				t.Errorf("%v/%s: %d packets, seq %d",
					mode, tc.name, res.MergeStats.Packets, base.MergeStats.Packets)
			}
			if res.Times.Merge != base.Times.Merge {
				t.Errorf("%v/%s: modeled merge %.6fs, seq %.6fs",
					mode, tc.name, res.Times.Merge, base.Times.Merge)
			}
		}
	}
}

// TestOnlyPipelinedEngineAccepted: the deprecated Engine option accepts
// only its zero value, the worker pool every reduction runs on.
func TestOnlyPipelinedEngineAccepted(t *testing.T) {
	opts := atlasOpts(16)
	opts.Engine = tbon.EnginePipelined
	if _, err := New(opts); err != nil {
		t.Fatalf("Engine = EnginePipelined rejected: %v", err)
	}
	opts.Engine = 1
	if _, err := New(opts); err == nil || !strings.Contains(err.Error(), "unknown reduction engine") {
		t.Fatalf("Engine = 1: err = %v, want unknown reduction engine", err)
	}
}
