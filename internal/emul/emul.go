// Package emul reproduces STATBench, the emulation infrastructure the
// authors built to evaluate STAT's scalability beyond the machine sizes
// they could schedule (G. Lee et al., "Benchmarking the Stack Trace
// Analysis Tool for BlueGene/L", ParCo 2007 — reference [9] of the SC'08
// paper). Instead of sampling a real application, every emulated daemon
// *generates* a synthetic trace population with controlled shape — call
// depth, branching factor, and the number of process equivalence classes —
// and drives it through the same merge pipeline. This decouples merge
// scalability from any particular application's stack population and is
// how the ablation benchmarks sweep tree shape.
package emul

import (
	"fmt"
	"sync"
	"time"

	"stat/internal/bitvec"
	"stat/internal/sim"
	"stat/internal/tbon"
	"stat/internal/telemetry"
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
	// reduction (leaf generation + merges), which is what the engine
	// ablations compare; ModeledSec prices the same traffic at machine
	// scale and is engine-independent.
	MeasuredSec float64
	Stats       *tbon.Stats
	// Live is the set of ranks the merged tree accounts for; nil when the
	// run completed in full (always, outside RunFaulty). RunFaulty tracks
	// it end to end — every payload carries its liveness — so recovered
	// subtrees (orphan adoption) count as surviving without the harness
	// having to re-derive engine semantics from the fault plan.
	Live *bitvec.Vector
	// Telemetry is the run's fleet frame (generate/encode/merge spans and
	// byte counters across every emulated daemon and filter call); nil
	// unless the run came through RunInstrumented.
	Telemetry *telemetry.Frame
}

// telemetryCollector folds the emulated pipeline's spans into one fleet
// frame. Engines call leaf producers and filters concurrently, so the
// fold takes a mutex — the emulation is a measurement harness, not the
// tool's hot path, and a lock keeps it trivially correct. A nil
// collector (the uninstrumented runs) costs one branch per hook.
type telemetryCollector struct {
	mu    sync.Mutex
	frame telemetry.Frame
}

func (c *telemetryCollector) add(fn func(*telemetry.Frame)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	fn(&c.frame)
	c.mu.Unlock()
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

// RunEngine is Run with an explicit reduction-engine selection, the knob
// the engine ablation sweeps (worker counts, budgets, concurrent).
func RunEngine(spec Spec, daemons int, topoSpec topology.Spec, hierarchical bool, model tbon.TimingModel, engine tbon.ReduceOptions) (*Result, error) {
	return runEngine(spec, daemons, topoSpec, hierarchical, model, engine, nil)
}

// RunInstrumented is RunEngine with the telemetry plane attached: leaf
// generation records walk/encode spans, every filter call records a
// merge span and byte counters, and engine-level reduce waits land in
// the same frame via a WaitObserver installed on the engine options.
// The folded fleet frame is returned on Result.Telemetry, so an
// emulation sweep reports through the same vocabulary as a live tool
// session.
func RunInstrumented(spec Spec, daemons int, topoSpec topology.Spec, hierarchical bool, model tbon.TimingModel, engine tbon.ReduceOptions) (*Result, error) {
	col := &telemetryCollector{}
	prev := engine.WaitObserver
	engine.WaitObserver = func(ns int64) {
		if prev != nil {
			prev(ns)
		}
		col.add(func(f *telemetry.Frame) { f.Observe(telemetry.SpanReduceWait, ns) })
	}
	res, err := runEngine(spec, daemons, topoSpec, hierarchical, model, engine, col)
	if err != nil {
		return nil, err
	}
	frame := col.frame
	res.Telemetry = &frame
	return res, nil
}

func runEngine(spec Spec, daemons int, topoSpec topology.Spec, hierarchical bool, model tbon.TimingModel, engine tbon.ReduceOptions, col *telemetryCollector) (*Result, error) {
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

	net := tbon.New(topo, nil)
	leafData := func(leaf int) ([]byte, error) {
		walkStart := time.Now()
		t := spec.DaemonTree(taskMap[leaf], hierarchical)
		walkNs := time.Since(walkStart).Nanoseconds()
		encStart := time.Now()
		b, err := t.MarshalBinary()
		encNs := time.Since(encStart).Nanoseconds()
		t.Release()
		if err == nil {
			col.add(func(f *telemetry.Frame) {
				f.Daemons++
				f.Observe(telemetry.SpanWalk, walkNs)
				f.Observe(telemetry.SpanEncode, encNs)
				f.PayloadBytes += int64(len(b))
			})
		}
		return b, err
	}
	filter := tbon.BytesFilter(func(children [][]byte) ([]byte, error) {
		mergeStart := time.Now()
		trees := make([]*trace.Tree, len(children))
		for i, c := range children {
			var err error
			trees[i], err = trace.UnmarshalBinary(c)
			if err != nil {
				return nil, err
			}
		}
		var merged *trace.Tree
		if hierarchical {
			merged = trace.MergeConcat(trees...)
		} else {
			merged = trees[0]
			for _, t := range trees[1:] {
				if err := trace.MergeUnion(merged, t); err != nil {
					return nil, err
				}
			}
		}
		out, err := merged.MarshalBinary()
		if err != nil {
			return nil, err
		}
		// All intermediates are dead once encoded; recycle their nodes.
		// The union path folds into trees[0], which merged aliases.
		for _, t := range trees[1:] {
			t.Release()
		}
		if hierarchical {
			trees[0].Release()
		}
		merged.Release()
		mergeNs := time.Since(mergeStart).Nanoseconds()
		col.add(func(f *telemetry.Frame) {
			f.Filters++
			f.Observe(telemetry.SpanMerge, mergeNs)
			f.MergedBytes += int64(len(out))
			if qd := int64(len(children)); qd > f.QueueDepth {
				f.QueueDepth = qd
			}
		})
		return out, nil
	})

	start := time.Now()
	out, stats, err := net.ReduceWith(engine, leafData, filter)
	measured := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	tree, err := trace.UnmarshalBinary(out)
	if err != nil {
		return nil, err
	}
	if hierarchical {
		perm := make([]int, 0, spec.Tasks)
		for _, ranks := range taskMap {
			perm = append(perm, ranks...)
		}
		if err := tree.Remap(perm, spec.Tasks); err != nil {
			return nil, err
		}
	}

	res := &Result{Tree: tree, Stats: stats, MeasuredSec: measured}
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

// RunFaulty is RunEngine under fault injection: the plan's crashes, cut
// links, and slow links are wired into the reduction (per-node, through the
// overlay's emulated transport), subtree waits are bounded by timeout, and
// lost subtrees degrade the result instead of failing it. Every payload
// carries an explicit liveness prefix (u32 length, bitvec, tree), unioned at
// each merge, so Result.Live reports exactly the ranks that reached the
// front end — including subtrees recovered by orphan re-parenting, which a
// static reading of the plan would miss. In hierarchical mode the final
// remap permutes only the surviving daemons' ranks. Live is nil when every
// rank survived.
func RunFaulty(spec Spec, daemons int, topoSpec topology.Spec, hierarchical bool,
	model tbon.TimingModel, engine tbon.ReduceOptions,
	plan *tbon.FaultPlan, timeout time.Duration) (*Result, error) {
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

	engine.Partial = true
	engine.Faults = plan
	engine.SubtreeTimeout = timeout

	net := tbon.New(topo, nil)
	leafData := func(leaf int) ([]byte, error) {
		live := bitvec.New(spec.Tasks)
		for _, r := range taskMap[leaf] {
			live.Set(r)
		}
		t := spec.DaemonTree(taskMap[leaf], hierarchical)
		b, err := t.MarshalBinary()
		t.Release()
		if err != nil {
			return nil, err
		}
		return prependLiveness(live, b)
	}
	filter := func(_ *tbon.FilterCtx, children []*tbon.Lease) (*tbon.Lease, error) {
		// Liveness is explicit in every payload, so the filter ignores the
		// ctx's span bookkeeping: merging whatever arrived and unioning the
		// carried liveness is already exact, under adoption included.
		live := bitvec.New(spec.Tasks)
		trees := make([]*trace.Tree, len(children))
		for i, c := range children {
			l, body, err := splitLiveness(c.Bytes())
			if err != nil {
				return nil, err
			}
			if err := live.UnionWith(l); err != nil {
				return nil, err
			}
			if trees[i], err = trace.UnmarshalBinary(body); err != nil {
				return nil, err
			}
		}
		var merged *trace.Tree
		if hierarchical {
			merged = trace.MergeConcat(trees...)
		} else {
			merged = trees[0]
			for _, t := range trees[1:] {
				if err := trace.MergeUnion(merged, t); err != nil {
					return nil, err
				}
			}
		}
		out, err := merged.MarshalBinary()
		if err != nil {
			return nil, err
		}
		for _, t := range trees[1:] {
			t.Release()
		}
		if hierarchical {
			trees[0].Release()
		}
		merged.Release()
		framed, err := prependLiveness(live, out)
		if err != nil {
			return nil, err
		}
		return tbon.NewLease(framed, nil), nil
	}

	start := time.Now()
	out, stats, err := net.ReduceNodeWith(engine, leafData, filter)
	measured := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	live, body, err := splitLiveness(out)
	if err != nil {
		return nil, err
	}
	tree, err := trace.UnmarshalBinary(body)
	if err != nil {
		return nil, err
	}
	if hierarchical {
		perm := make([]int, 0, live.Count())
		for d, ranks := range taskMap {
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
				return nil, fmt.Errorf("emul: daemon %d liveness is torn: %d of %d ranks survive", d, n, len(ranks))
			}
		}
		if err := tree.Remap(perm, spec.Tasks); err != nil {
			return nil, err
		}
	}

	res := &Result{Tree: tree, Stats: stats, MeasuredSec: measured}
	if live.Count() < spec.Tasks {
		res.Live = live
	}
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

// prependLiveness frames a payload as u32 liveness length, the serialized
// liveness, then the body.
func prependLiveness(live *bitvec.Vector, body []byte) ([]byte, error) {
	lv, err := live.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 4+len(lv)+len(body))
	out[0] = byte(len(lv))
	out[1] = byte(len(lv) >> 8)
	out[2] = byte(len(lv) >> 16)
	out[3] = byte(len(lv) >> 24)
	copy(out[4:], lv)
	copy(out[4+len(lv):], body)
	return out, nil
}

// splitLiveness undoes prependLiveness.
func splitLiveness(b []byte) (*bitvec.Vector, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("emul: truncated liveness frame")
	}
	n := int(b[0]) | int(b[1])<<8 | int(b[2])<<16 | int(b[3])<<24
	if n < 0 || len(b) < 4+n {
		return nil, nil, fmt.Errorf("emul: liveness length %d exceeds frame", n)
	}
	live, _, err := bitvec.UnmarshalBinary(b[4 : 4+n])
	if err != nil {
		return nil, nil, err
	}
	return live, b[4+n:], nil
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
