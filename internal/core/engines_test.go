package core

import (
	"testing"

	"stat/internal/machine"
	"stat/internal/tbon"
	"stat/internal/topology"
)

// testEngine is one reduction-engine configuration the core differentials
// sweep. "seq" is the pipelined engine on one worker: the sequential fold
// every other configuration must match byte for byte.
type testEngine struct {
	name    string
	engine  tbon.Engine
	workers int
}

func (e testEngine) String() string { return e.name }

// apply selects the engine configuration on o.
func (e testEngine) apply(o *Options) {
	o.Engine, o.ReduceWorkers = e.engine, e.workers
}

// reduceOpts is the engine configuration as tbon options, for tests that
// drive a reduction directly.
func (e testEngine) reduceOpts() tbon.ReduceOptions {
	return tbon.ReduceOptions{Engine: e.engine, Workers: e.workers}
}

var (
	seqEngine        = testEngine{"seq", tbon.EnginePipelined, 1}
	concurrentEngine = testEngine{"concurrent", tbon.EngineConcurrent, 0}
	pipelinedEngine  = testEngine{"pipelined", tbon.EnginePipelined, 0}
	allEngines       = []testEngine{seqEngine, concurrentEngine, pipelinedEngine}
)

// TestMergeEnginesAgree runs the full tool merge phase under every
// reduction engine and representation and requires identical analysis
// results: same trees, same traffic statistics. This is the end-to-end
// differential check — everything below Options.Engine (session
// protocol, daemons, trace merges, remap) must be engine-invariant.
func TestMergeEnginesAgree(t *testing.T) {
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		newTool := func(engine testEngine, budget int64) *Tool {
			opts := Options{
				Machine:           machine.Atlas(),
				Tasks:             96,
				Topology:          topology.Spec{Kind: topology.KindBalanced, Depth: 2},
				BitVec:            mode,
				Samples:           3,
				ReduceBudgetBytes: budget,
			}
			engine.apply(&opts)
			tool, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			return tool
		}
		base, err := newTool(seqEngine, 0).MeasureMerge()
		if err != nil {
			t.Fatalf("%v/seq: %v", mode, err)
		}
		if base.MergeErr != nil {
			t.Fatalf("%v/seq: %v", mode, base.MergeErr)
		}
		for _, tc := range []struct {
			name   string
			engine testEngine
			budget int64
		}{
			{"concurrent", concurrentEngine, 0},
			{"pipelined", pipelinedEngine, 0},
			{"pipelined-w4", testEngine{"pipelined-w4", tbon.EnginePipelined, 4}, 0},
			{"pipelined-64KiB", pipelinedEngine, 64 << 10},
			{"pipelined-1B", pipelinedEngine, 1},
		} {
			res, err := newTool(tc.engine, tc.budget).MeasureMerge()
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
