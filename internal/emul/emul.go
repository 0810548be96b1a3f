// Package emul reproduces STATBench, the emulation infrastructure the
// authors built to evaluate STAT's scalability beyond the machine sizes
// they could schedule (G. Lee et al., "Benchmarking the Stack Trace
// Analysis Tool for BlueGene/L", ParCo 2007 — reference [9] of the SC'08
// paper). Instead of sampling a real application, every emulated daemon
// *generates* a synthetic trace population with controlled shape — call
// depth, branching factor, and the number of process equivalence classes.
// The package is only a leaf source: the generated trees are reduced by
// core.MergeTrees, which encodes them as the tool's daemons do and merges
// them with the tool's own result filter, wire version and fused
// front-end remap. A sweep therefore measures the merge that ships, with
// merge scalability decoupled from any particular application's stack
// population; that is how the ablation benchmarks sweep tree shape.
package emul

import (
	"fmt"
	"time"

	"stat/internal/bitvec"
	"stat/internal/core"
	"stat/internal/sim"
	"stat/internal/tbon"
	"stat/internal/topology"
	"stat/internal/trace"
)

// Spec describes a synthetic trace population.
type Spec struct {
	// Tasks is the emulated application size.
	Tasks int
	// Depth is the call-path length below main.
	Depth int
	// Branch is the number of distinct callees available at each level.
	Branch int
	// EqClasses is the number of distinct call paths across the job —
	// STATBench's key knob: real bugs produce few classes, noise produces
	// many.
	EqClasses int
	// Seed fixes the synthetic population.
	Seed uint64
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Tasks < 1 {
		return fmt.Errorf("emul: Tasks = %d", s.Tasks)
	}
	if s.Depth < 1 {
		return fmt.Errorf("emul: Depth = %d", s.Depth)
	}
	if s.Branch < 1 {
		return fmt.Errorf("emul: Branch = %d", s.Branch)
	}
	if s.EqClasses < 1 {
		return fmt.Errorf("emul: EqClasses = %d", s.EqClasses)
	}
	return nil
}

// classOf assigns a task to an equivalence class (round-robin, so class
// populations are balanced the way STATBench generates them).
func (s Spec) classOf(task int) int { return task % s.EqClasses }

// PathFor returns the call path of a task's class: a deterministic walk
// through the synthetic function space, one choice among Branch callees
// per level. Distinct classes diverge at a pseudo-random depth, so class
// paths share prefixes exactly as real stack populations do.
func (s Spec) PathFor(task int) []string {
	class := s.classOf(task)
	r := sim.NewRNG(s.Seed).Derive(uint64(class), 0xEC)
	path := make([]string, 0, s.Depth+1)
	path = append(path, "main")
	for level := 0; level < s.Depth; level++ {
		choice := r.Intn(s.Branch)
		path = append(path, fmt.Sprintf("f%d_%d", level, choice))
	}
	return path
}

// DaemonTree builds one emulated daemon's locally-merged tree. ranks are
// the global ranks the daemon serves (in local order); hierarchical
// selects subtree-local labels (width = len(ranks)) versus full-job-width
// labels.
func (s Spec) DaemonTree(ranks []int, hierarchical bool) *trace.Tree {
	width := len(ranks)
	if !hierarchical {
		width = s.Tasks
	}
	t := trace.NewTree(width)
	for local, rank := range ranks {
		idx := local
		if !hierarchical {
			idx = rank
		}
		t.AddStack(idx, s.PathFor(rank)...)
	}
	return t
}

// Result reports one emulation run.
type Result struct {
	Tree            *trace.Tree
	Classes         []trace.Class
	FrontEndInBytes int64
	MaxLeafBytes    int64
	ModeledSec      float64
	// MeasuredSec is the real wall-clock time of the in-process
	// reduction — leaf generation and encode, every filter merge, and the
	// root decode with its fused rank remap — which is what the engine
	// ablations compare; ModeledSec prices the same traffic at machine
	// scale and is engine-independent.
	MeasuredSec float64
	Stats       *tbon.Stats
	// Live is the set of ranks the merged tree accounts for; nil when the
	// run completed in full. Only a run whose engine options set Partial
	// can end otherwise: lost subtrees then degrade the tree instead of
	// failing the run, and subtrees recovered by orphan adoption count as
	// surviving.
	Live *bitvec.Vector
}

// Run drives a full emulated merge under the default (pipelined)
// reduction engine: daemons generate their synthetic trees, the overlay
// reduces them under the chosen representation, and the timing model
// prices the traffic.
// Task→daemon assignment is round-robin (non-contiguous, so the
// hierarchical path must remap).
func Run(spec Spec, daemons int, topoSpec topology.Spec, hierarchical bool, model tbon.TimingModel) (*Result, error) {
	return RunEngine(spec, daemons, topoSpec, hierarchical, model, tbon.ReduceOptions{})
}

// RunEngine is Run with explicit reduction options: the configurations
// the engine ablation sweeps (worker counts, budgets), and the
// fault knobs — Partial, Faults and SubtreeTimeout — that wire a
// tbon.FaultPlan's crashes, cut links and slow links into the reduction
// and report the survivors on Result.Live.
func RunEngine(spec Spec, daemons int, topoSpec topology.Spec, hierarchical bool, model tbon.TimingModel, engine tbon.ReduceOptions) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if daemons < 1 || daemons > spec.Tasks {
		return nil, fmt.Errorf("emul: %d daemons for %d tasks", daemons, spec.Tasks)
	}
	topo, err := topoSpec.Build(daemons)
	if err != nil {
		return nil, err
	}

	taskMap := make([][]int, daemons)
	for rank := 0; rank < spec.Tasks; rank++ {
		d := rank % daemons
		taskMap[d] = append(taskMap[d], rank)
	}
	mode := core.Original
	if hierarchical {
		mode = core.Hierarchical
	}
	leaf := func(d int) (*trace.Tree, error) {
		return spec.DaemonTree(taskMap[d], hierarchical), nil
	}

	start := time.Now()
	tree, live, stats, err := core.MergeTrees(tbon.New(topo), engine, mode, taskMap, spec.Tasks, leaf)
	measured := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}

	res := &Result{Tree: tree, Stats: stats, MeasuredSec: measured, Live: live}
	res.Classes = tree.EquivalenceClasses()
	res.FrontEndInBytes = stats.NodeInBytes[topo.Root.ID]
	for _, leaf := range topo.Leaves {
		if b := stats.NodeOutBytes[leaf.ID]; b > res.MaxLeafBytes {
			res.MaxLeafBytes = b
		}
	}
	res.ModeledSec = model.ReduceTime(topo, stats, nil)
	return res, nil
}

// ExpectedClasses reports how many equivalence classes a run must find:
// the spec's class count, capped by the task count, minus collisions —
// since class paths are generated independently, two classes can draw the
// same path; this reports the number of *distinct* paths.
func (s Spec) ExpectedClasses() int {
	n := s.EqClasses
	if s.Tasks < n {
		n = s.Tasks
	}
	seen := map[string]bool{}
	for c := 0; c < n; c++ {
		seen[fmt.Sprint(s.PathFor(c))] = true
	}
	return len(seen)
}

// MembersOfClass reports the sorted global ranks of one class, used by
// verification: the merged tree must reproduce this membership exactly.
func (s Spec) MembersOfClass(class int) []int {
	v := bitvec.New(s.Tasks)
	for task := 0; task < s.Tasks; task++ {
		if s.classOf(task) == class {
			v.Set(task)
		}
	}
	return v.Members()
}
