package emul

import (
	"testing"
	"time"

	"stat/internal/bitvec"
	"stat/internal/tbon"
	"stat/internal/topology"
)

// faultSpec and the fixed daemon count give every fault test the same
// synthetic population; topology builds are deterministic, so rebuilding
// the spec here yields the same node IDs RunEngine sees internally.
var faultSpec = Spec{Tasks: 128, Depth: 4, Branch: 4, EqClasses: 7, Seed: 11}

const faultDaemons = 9

// faultOpts is engine with the reduction degrading instead of failing:
// the plan's faults wired in and every subtree wait bounded by timeout.
func faultOpts(engine tbon.ReduceOptions, plan *tbon.FaultPlan, timeout time.Duration) tbon.ReduceOptions {
	engine.Partial = true
	engine.Faults = plan
	engine.SubtreeTimeout = timeout
	return engine
}

// expectLive is the rank set left after the given daemons crash, under
// RunEngine's round-robin task assignment.
func expectLive(s Spec, daemons int, crashed ...int) *bitvec.Vector {
	dead := map[int]bool{}
	for _, d := range crashed {
		dead[d] = true
	}
	live := bitvec.New(s.Tasks)
	for rank := 0; rank < s.Tasks; rank++ {
		if !dead[rank%daemons] {
			live.Set(rank)
		}
	}
	return live
}

func TestRunEngineFaultDegradesToSurvivors(t *testing.T) {
	topoSpec := topology.Spec{Kind: topology.KindBalanced, Depth: 2}
	topo, err := topoSpec.Build(faultDaemons)
	if err != nil {
		t.Fatal(err)
	}
	for _, hier := range []bool{false, true} {
		full, err := Run(faultSpec, faultDaemons, topoSpec, hier, model())
		if err != nil {
			t.Fatal(err)
		}
		crashed := []int{2, 7}
		plan := &tbon.FaultPlan{Crash: map[int]bool{}}
		for _, d := range crashed {
			plan.Crash[topo.Leaves[d].ID] = true
		}
		res, err := RunEngine(faultSpec, faultDaemons, topoSpec, hier, model(),
			faultOpts(tbon.ReduceOptions{}, plan, time.Second))
		if err != nil {
			t.Fatalf("hier=%v: %v", hier, err)
		}
		want := expectLive(faultSpec, faultDaemons, crashed...)
		if res.Live == nil || !res.Live.Equal(want) {
			t.Fatalf("hier=%v: Live != surviving ranks", hier)
		}
		focused, err := full.Tree.Focus(want)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Tree.Equal(focused) {
			t.Errorf("hier=%v: degraded tree != fault-free tree focused on survivors", hier)
		}
	}
}

func TestRunEngineFaultFreeMatchesRun(t *testing.T) {
	topoSpec := topology.Spec{Kind: topology.KindBalanced, Depth: 2}
	for _, hier := range []bool{false, true} {
		full, err := Run(faultSpec, faultDaemons, topoSpec, hier, model())
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunEngine(faultSpec, faultDaemons, topoSpec, hier, model(),
			faultOpts(tbon.ReduceOptions{}, nil, time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if res.Live != nil {
			t.Errorf("hier=%v: fault-free partial run reported a liveness set", hier)
		}
		if !res.Tree.Equal(full.Tree) {
			t.Errorf("hier=%v: fault-free partial run tree differs from Run", hier)
		}
	}
}

// TestRunEngineFaultAdoptionRecovers: a crashed interior node's children
// are re-parented, and because the result filter accounts liveness from
// what actually arrives, the recovered ranks count as surviving — Live comes back nil, which a
// static reading of the fault plan could not produce.
func TestRunEngineFaultAdoptionRecovers(t *testing.T) {
	topoSpec := topology.Spec{Kind: topology.KindBalanced, Depth: 2}
	topo, err := topoSpec.Build(faultDaemons)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Levels) < 3 || len(topo.Levels[1]) < 2 {
		t.Fatalf("topology has no interior level to crash")
	}
	full, err := Run(faultSpec, faultDaemons, topoSpec, true, model())
	if err != nil {
		t.Fatal(err)
	}
	plan := &tbon.FaultPlan{Crash: map[int]bool{topo.Levels[1][1].ID: true}}
	res, err := RunEngine(faultSpec, faultDaemons, topoSpec, true, model(),
		faultOpts(tbon.ReduceOptions{}, plan, 500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Live != nil {
		t.Fatalf("adoption did not fully recover: %d ranks survive", res.Live.Count())
	}
	if !res.Tree.Equal(full.Tree) {
		t.Error("recovered tree differs from the fault-free result")
	}
}
