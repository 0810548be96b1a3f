package core

import (
	"strings"
	"testing"

	"stat/internal/machine"
	"stat/internal/topology"
)

func atlasOpts(tasks int) Options {
	return Options{
		Machine:  machine.Atlas(),
		Tasks:    tasks,
		Topology: topology.Spec{Kind: topology.KindFlat},
		Samples:  4,
	}
}

// TestRunIdentifiesHungTask is the tool's reason to exist: on the buggy
// ring app, the equivalence classes must isolate the hung task (rank 1)
// and its blocked successor (rank 2) from the herd in the barrier.
func TestRunIdentifiesHungTask(t *testing.T) {
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		opts := atlasOpts(64)
		opts.BitVec = mode
		tool, err := New(opts)
		if err != nil {
			t.Fatalf("%v: New: %v", mode, err)
		}
		res, err := tool.Run()
		if err != nil {
			t.Fatalf("%v: Run: %v", mode, err)
		}
		if res.LaunchErr != nil || res.MergeErr != nil {
			t.Fatalf("%v: unexpected env failure: %v %v", mode, res.LaunchErr, res.MergeErr)
		}
		var hung, waitall bool
		for _, c := range res.Classes {
			path := strings.Join(c.Path, ">")
			if strings.Contains(path, "do_SendOrStall") {
				hung = true
				if len(c.Tasks) != 1 || c.Tasks[0] != 1 {
					t.Errorf("%v: hung class tasks = %v, want [1]", mode, c.Tasks)
				}
			}
			if strings.Contains(path, "PMPI_Waitall") {
				waitall = true
				if len(c.Tasks) != 1 || c.Tasks[0] != 2 {
					t.Errorf("%v: waitall class tasks = %v, want [2]", mode, c.Tasks)
				}
			}
		}
		if !hung || !waitall {
			t.Errorf("%v: classes missing hung/waitall paths: %v", mode, res.Classes)
		}
	}
}

// TestModesAgreeAfterRemap: the optimized representation must be a pure
// optimization — after the front end's remap, both modes produce
// identical trees.
func TestModesAgreeAfterRemap(t *testing.T) {
	var trees []*Result
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		opts := atlasOpts(128)
		opts.BitVec = mode
		opts.Topology = topology.Spec{Kind: topology.KindBalanced, Depth: 2}
		tool, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := tool.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.MergeErr != nil {
			t.Fatalf("merge: %v", res.MergeErr)
		}
		trees = append(trees, res)
	}
	if !trees[0].Tree2D.Equal(trees[1].Tree2D) {
		t.Errorf("2D trees differ between modes:\noriginal:\n%s\nhierarchical:\n%s",
			trees[0].Tree2D, trees[1].Tree2D)
	}
	if !trees[0].Tree3D.Equal(trees[1].Tree3D) {
		t.Errorf("3D trees differ between modes")
	}
}

// TestHierarchicalPayloadsSmaller verifies the paper's core data-structure
// claim: hierarchical labels shrink the leaf payloads and the front end's
// ingress relative to full-width bit vectors.
func TestHierarchicalPayloadsSmaller(t *testing.T) {
	run := func(mode BitVecMode) *Result {
		opts := atlasOpts(2048)
		opts.BitVec = mode
		opts.Topology = topology.Spec{Kind: topology.KindBalanced, Depth: 2}
		tool, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := tool.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	orig := run(Original)
	hier := run(Hierarchical)
	if hier.MaxLeafPayloadBytes >= orig.MaxLeafPayloadBytes {
		t.Errorf("hierarchical leaf payload %d >= original %d",
			hier.MaxLeafPayloadBytes, orig.MaxLeafPayloadBytes)
	}
	if hier.Times.Merge >= orig.Times.Merge {
		t.Errorf("hierarchical merge time %.6f >= original %.6f",
			hier.Times.Merge, orig.Times.Merge)
	}
	if hier.Times.Remap <= 0 {
		t.Errorf("hierarchical remap time = %v, want > 0", hier.Times.Remap)
	}
	if orig.Times.Remap != 0 {
		t.Errorf("original remap time = %v, want 0", orig.Times.Remap)
	}
}

// TestParallelReduceMatchesSequential: the default worker pool and the
// one-worker sequential fold must produce identical trees and identical
// traffic.
func TestParallelReduceMatchesSequential(t *testing.T) {
	results := map[bool]*Result{}
	for _, parallel := range []bool{false, true} {
		opts := atlasOpts(256)
		opts.BitVec = Hierarchical
		opts.Topology = topology.Spec{Kind: topology.KindBalanced, Depth: 2}
		engine := seqEngine
		if parallel {
			engine = pipelinedEngine
		}
		engine.apply(&opts)
		tool, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := tool.Run()
		if err != nil {
			t.Fatalf("Run(parallel=%v): %v", parallel, err)
		}
		results[parallel] = res
	}
	if !results[false].Tree3D.Equal(results[true].Tree3D) {
		t.Errorf("parallel and sequential reductions disagree")
	}
	if results[false].FrontEndInBytes != results[true].FrontEndInBytes {
		t.Errorf("front-end ingress differs: seq %d, parallel %d",
			results[false].FrontEndInBytes, results[true].FrontEndInBytes)
	}
}

// TestBGLFlatMergeFanInFailure reproduces Figure 5's failure: the 1-deep
// topology cannot merge at 16,384 BG/L compute nodes (256 daemons exceed
// the front end's fan-in budget) while 128 daemons still work.
func TestBGLFlatMergeFanInFailure(t *testing.T) {
	run := func(tasks int) *Result {
		opts := Options{
			Machine:    machine.BGL(),
			Mode:       machine.CO,
			Tasks:      tasks,
			Topology:   topology.Spec{Kind: topology.KindFlat},
			BitVec:     Original,
			BGLPatched: true,
			Samples:    2,
		}
		tool, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := tool.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	if res := run(8192); res.MergeErr != nil { // 128 daemons
		t.Errorf("flat merge at 128 daemons failed: %v", res.MergeErr)
	}
	if res := run(16384); res.MergeErr == nil { // 256 daemons
		t.Errorf("flat merge at 256 daemons succeeded, want fan-in failure")
	}
}

// TestLaunchFailures covers the two environment launch failures: rsh
// session exhaustion at 512 daemons (Atlas) and the unpatched control
// system hang at 208K tasks (BG/L).
func TestLaunchFailures(t *testing.T) {
	opts := atlasOpts(512 * 8)
	opts.Launcher = nil // defaulted LaunchMON works at 512
	tool, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.LaunchErr != nil {
		t.Errorf("LaunchMON at 512 daemons failed: %v", res.LaunchErr)
	}
	if res.Times.Launch > 10 {
		t.Errorf("LaunchMON at 512 daemons took %.1fs, want a few seconds", res.Times.Launch)
	}
}

// TestThreadsExtension checks the Section VII claim: an application with
// T threads per task generates the sampling load of a T×-larger job, and
// the per-thread stacks merge into the per-process representation.
func TestThreadsExtension(t *testing.T) {
	opts := atlasOpts(64)
	opts.ThreadsPerTask = 4
	tool, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var worker bool
	for _, c := range res.Tree3D.EquivalenceClasses() {
		for _, f := range c.Path {
			if f == "worker_loop" {
				worker = true
			}
		}
	}
	if !worker {
		t.Errorf("3D tree missing worker-thread stacks")
	}

	// Sampling time should scale roughly 4x versus single-threaded.
	opts1 := atlasOpts(64)
	tool1, _ := New(opts1)
	res1, err := tool1.Run()
	if err != nil {
		t.Fatalf("Run single-thread: %v", err)
	}
	ratio := res.Times.Sample / res1.Times.Sample
	if ratio < 2 || ratio > 8 {
		t.Errorf("4-thread sampling %.2fx single-thread, want roughly 4x", ratio)
	}
}
