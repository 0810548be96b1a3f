package emul

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"stat/internal/sim"
	"stat/internal/tbon"
	"stat/internal/topology"
)

func model() tbon.TimingModel {
	return tbon.TimingModel{
		Link: sim.Link{LatencySec: 1e-5, BytesPerSec: 1e9},
		CPU:  sim.CPUCost{PerMessageSec: 1e-4, PerByteSec: 1e-8},
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Tasks: 8, Depth: 3, Branch: 2, EqClasses: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for _, bad := range []Spec{
		{Tasks: 0, Depth: 1, Branch: 1, EqClasses: 1},
		{Tasks: 1, Depth: 0, Branch: 1, EqClasses: 1},
		{Tasks: 1, Depth: 1, Branch: 0, EqClasses: 1},
		{Tasks: 1, Depth: 1, Branch: 1, EqClasses: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid spec accepted: %+v", bad)
		}
	}
}

func TestPathsDeterministicAndClassShared(t *testing.T) {
	s := Spec{Tasks: 100, Depth: 5, Branch: 3, EqClasses: 4, Seed: 7}
	// Same class → same path; the path is stable across calls.
	if !reflect.DeepEqual(s.PathFor(0), s.PathFor(4)) {
		t.Error("tasks of one class have different paths")
	}
	if !reflect.DeepEqual(s.PathFor(13), s.PathFor(13)) {
		t.Error("path not deterministic")
	}
	if got := len(s.PathFor(0)); got != 6 {
		t.Errorf("path length = %d, want Depth+1", got)
	}
	// All frames come from the declared function space.
	for _, f := range s.PathFor(1)[1:] {
		if !strings.HasPrefix(f, "f") {
			t.Errorf("unexpected frame %q", f)
		}
	}
}

func TestRunRecoversClasses(t *testing.T) {
	s := Spec{Tasks: 256, Depth: 6, Branch: 8, EqClasses: 5, Seed: 3}
	for _, hier := range []bool{false, true} {
		res, err := Run(s, 16, topology.Spec{Kind: topology.KindBalanced, Depth: 2}, hier, model())
		if err != nil {
			t.Fatalf("hier=%v: %v", hier, err)
		}
		if got, want := len(res.Classes), s.ExpectedClasses(); got != want {
			t.Errorf("hier=%v: %d classes, want %d", hier, got, want)
		}
		// Every class's membership matches the generator's ground truth.
		total := 0
		for _, c := range res.Classes {
			total += len(c.Tasks)
			class := s.classOf(c.Tasks[0])
			if want := s.MembersOfClass(class); !reflect.DeepEqual(c.Tasks, want) {
				t.Errorf("hier=%v class %d: members %v, want %v", hier, class, c.Tasks[:min(8, len(c.Tasks))], want[:min(8, len(want))])
			}
		}
		if total != s.Tasks {
			t.Errorf("hier=%v: classes cover %d of %d tasks", hier, total, s.Tasks)
		}
	}
}

func TestRunModesAgree(t *testing.T) {
	s := Spec{Tasks: 128, Depth: 4, Branch: 4, EqClasses: 7, Seed: 11}
	orig, err := Run(s, 8, topology.Spec{Kind: topology.KindFlat}, false, model())
	if err != nil {
		t.Fatal(err)
	}
	hier, err := Run(s, 8, topology.Spec{Kind: topology.KindFlat}, true, model())
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Tree.Equal(hier.Tree) {
		t.Error("original and hierarchical emulations disagree after remap")
	}

	// Subtree-local labels must make the leaf payload smaller once the job
	// is wide enough for full-width labels to cost more than the wire's
	// 8-byte label granularity: at 128 tasks both modes' labels fit the
	// same words, at 256 over 8 daemons they no longer do.
	s.Tasks = 256
	if orig, err = Run(s, 8, topology.Spec{Kind: topology.KindFlat}, false, model()); err != nil {
		t.Fatal(err)
	}
	if hier, err = Run(s, 8, topology.Spec{Kind: topology.KindFlat}, true, model()); err != nil {
		t.Fatal(err)
	}
	if hier.MaxLeafBytes >= orig.MaxLeafBytes {
		t.Errorf("hierarchical leaf payload %d >= original %d", hier.MaxLeafBytes, orig.MaxLeafBytes)
	}
}

// TestRunMatchesDirectMerge: every run, whatever the representation,
// overlay shape or reduction engine, yields exactly the tree one process
// builds by adding every task's stack to a single job-width tree — the
// reference involves no overlay, no wire and no remap.
func TestRunMatchesDirectMerge(t *testing.T) {
	topos := []topology.Spec{
		{Kind: topology.KindFlat},
		{Kind: topology.KindBalanced, Depth: 2},
		{Kind: topology.KindBGL2Deep},
	}
	engines := []struct {
		name string
		opts tbon.ReduceOptions
	}{
		{"pipelined", tbon.ReduceOptions{}},
		{"one-worker", tbon.ReduceOptions{Workers: 1}},
		{"kway", tbon.ReduceOptions{Workers: 8, BudgetBytes: 1 << 30}},
	}
	for _, seed := range []uint64{1, 2, 3} {
		r := sim.NewRNG(seed)
		s := Spec{
			Tasks:     16 + r.Intn(240),
			Depth:     1 + r.Intn(8),
			Branch:    1 + r.Intn(5),
			EqClasses: 1 + r.Intn(24),
			Seed:      seed,
		}
		daemons := 1 + r.Intn(s.Tasks/2)
		all := make([]int, s.Tasks)
		for i := range all {
			all[i] = i
		}
		want := s.DaemonTree(all, false)
		for _, hier := range []bool{false, true} {
			for _, topo := range topos {
				for _, eng := range engines {
					res, err := RunEngine(s, daemons, topo, hier, model(), eng.opts)
					if err != nil {
						t.Fatalf("seed %d hier=%v %v %s: %v", seed, hier, topo, eng.name, err)
					}
					if !res.Tree.Equal(want) {
						t.Errorf("seed %d hier=%v %v %s: merged tree differs from the direct merge",
							seed, hier, topo, eng.name)
					}
				}
			}
		}
	}
}

func TestPayloadGrowsWithShape(t *testing.T) {
	base := Spec{Tasks: 512, Depth: 4, Branch: 2, EqClasses: 8, Seed: 5}
	deep := base
	deep.Depth = 16
	wide := base
	wide.EqClasses = 128

	run := func(s Spec) *Result {
		r, err := Run(s, 32, topology.Spec{Kind: topology.KindBalanced, Depth: 2}, false, model())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	b, d, w := run(base), run(deep), run(wide)
	if d.FrontEndInBytes <= b.FrontEndInBytes {
		t.Errorf("deeper traces did not grow payload: %d vs %d", d.FrontEndInBytes, b.FrontEndInBytes)
	}
	if w.FrontEndInBytes <= b.FrontEndInBytes {
		t.Errorf("more classes did not grow payload: %d vs %d", w.FrontEndInBytes, b.FrontEndInBytes)
	}
	if len(w.Classes) <= len(b.Classes) {
		t.Errorf("class sweep did not increase classes: %d vs %d", len(w.Classes), len(b.Classes))
	}
}

func TestRunErrors(t *testing.T) {
	s := Spec{Tasks: 8, Depth: 2, Branch: 2, EqClasses: 2}
	if _, err := Run(s, 0, topology.Spec{Kind: topology.KindFlat}, false, model()); err == nil {
		t.Error("zero daemons accepted")
	}
	if _, err := Run(s, 9, topology.Spec{Kind: topology.KindFlat}, false, model()); err == nil {
		t.Error("more daemons than tasks accepted")
	}
	bad := Spec{}
	if _, err := Run(bad, 1, topology.Spec{Kind: topology.KindFlat}, false, model()); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestQuickModesAgree: for arbitrary small populations, the two
// representations produce identical merged trees — STATBench's version of
// the concat-then-remap ≡ union invariant, over synthetic traces.
func TestQuickModesAgree(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		s := Spec{
			Tasks:     2 + r.Intn(120),
			Depth:     1 + r.Intn(8),
			Branch:    1 + r.Intn(5),
			EqClasses: 1 + r.Intn(12),
			Seed:      seed,
		}
		daemons := 1 + r.Intn(s.Tasks)
		orig, err := Run(s, daemons, topology.Spec{Kind: topology.KindBalanced, Depth: 2}, false, model())
		if err != nil {
			return false
		}
		hier, err := Run(s, daemons, topology.Spec{Kind: topology.KindBalanced, Depth: 2}, true, model())
		if err != nil {
			return false
		}
		return orig.Tree.Equal(hier.Tree)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
