package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"stat/internal/core"
	"stat/internal/mpisim"
	"stat/internal/trace"
)

// A four-task ring with rank 1 hung, two samples per round, worked out by
// hand. Rank 0 spins in the barrier at progress depth 0, rank 2 waits in
// MPI_Waitall on rank 1 at depth 1, and rank 3 spins in the barrier at
// depth 1 on its first sample and depth 0 on its last.
var (
	barrier  = []string{mpisim.FnStart, mpisim.FnMain, mpisim.FnBarrier, mpisim.FnBGLGIBarrier, mpisim.FnGIBarrier, mpisim.FnPollfcn}
	waitall  = []string{mpisim.FnStart, mpisim.FnMain, mpisim.FnWaitall, mpisim.FnProgressWait, mpisim.FnPollfcn, mpisim.FnMessagerAdvance, mpisim.FnMessagerCM}
	hung     = []string{mpisim.FnStart, mpisim.FnMain, mpisim.FnSendOrStall, mpisim.FnGettimeofday}
	barrier1 = append(slices.Clone(barrier), mpisim.FnMessagerAdvance, mpisim.FnMessagerCM)
)

func handStacks(task, thread, sample int) []string {
	switch task {
	case 0:
		return barrier
	case 1:
		return hung
	case 2:
		return waitall
	}
	if sample%2 == 0 {
		return barrier1
	}
	return barrier
}

// The expected trees, path → members, by hand.
var (
	hand2D = map[string][]int32{
		"":                               {0, 1, 2, 3},
		"_start_blrts":                   {0, 1, 2, 3},
		"_start_blrts/main":              {0, 1, 2, 3},
		"_start_blrts/main/PMPI_Barrier": {0, 3},
		"_start_blrts/main/PMPI_Barrier/MPIDI_BGLGI_Barrier":                                                              {0, 3},
		"_start_blrts/main/PMPI_Barrier/MPIDI_BGLGI_Barrier/BGLMP_GIBarrier":                                              {0, 3},
		"_start_blrts/main/PMPI_Barrier/MPIDI_BGLGI_Barrier/BGLMP_GIBarrier/BGLML_pollfcn":                                {0, 3},
		"_start_blrts/main/PMPI_Waitall":                                                                                  {2},
		"_start_blrts/main/PMPI_Waitall/MPID_Progress_wait":                                                               {2},
		"_start_blrts/main/PMPI_Waitall/MPID_Progress_wait/BGLML_pollfcn":                                                 {2},
		"_start_blrts/main/PMPI_Waitall/MPID_Progress_wait/BGLML_pollfcn/BGLML_Messager_advance":                          {2},
		"_start_blrts/main/PMPI_Waitall/MPID_Progress_wait/BGLML_pollfcn/BGLML_Messager_advance/BGLML_Messager_CMadvance": {2},
		"_start_blrts/main/do_SendOrStall":                                                                                {1},
		"_start_blrts/main/do_SendOrStall/__gettimeofday":                                                                 {1},
	}
	// The 3D tree adds rank 3's deeper first sample.
	hand3D = withPaths(hand2D, map[string][]int32{
		"_start_blrts/main/PMPI_Barrier/MPIDI_BGLGI_Barrier/BGLMP_GIBarrier/BGLML_pollfcn/BGLML_Messager_advance":                          {3},
		"_start_blrts/main/PMPI_Barrier/MPIDI_BGLGI_Barrier/BGLMP_GIBarrier/BGLML_pollfcn/BGLML_Messager_advance/BGLML_Messager_CMadvance": {3},
	})
)

func withPaths(base, extra map[string][]int32) map[string][]int32 {
	out := map[string][]int32{}
	for k, v := range base {
		out[k] = v
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// flatten lists a reference tree as path → members.
func flatten(t *refTree) map[string][]int32 {
	out := map[string][]int32{}
	var rec func(n *refNode, path []string)
	rec = func(n *refNode, path []string) {
		out[strings.Join(path, "/")] = n.members
		for name, c := range n.children {
			rec(c, append(path, name))
		}
	}
	rec(&t.root, nil)
	return out
}

// handTree builds a merged tree the way a correct session would report it.
func handTree(paths map[string][]int32) *trace.Tree {
	t := trace.NewTree(4)
	for path, members := range paths {
		if path == "" {
			continue
		}
		for _, m := range members {
			t.AddStack(int(m), strings.Split(path, "/")...)
		}
	}
	return t
}

func TestReferenceByHand(t *testing.T) {
	ref2, ref3 := buildReference(handStacks, 4, 1, 2, 0)
	for _, tc := range []struct {
		name string
		got  map[string][]int32
		want map[string][]int32
	}{{"2D", flatten(ref2), hand2D}, {"3D", flatten(ref3), hand3D}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: %d paths, want %d", tc.name, len(tc.got), len(tc.want))
		}
		for path, want := range tc.want {
			if got := tc.got[path]; !slices.Equal(got, want) {
				t.Errorf("%s /%s: members %v, want %v", tc.name, path, got, want)
			}
		}
	}

	if err := compareTree("2D", ref2, handTree(hand2D), 4); err != nil {
		t.Errorf("hand 2D tree: %v", err)
	}
	if err := compareTree("3D", ref3, handTree(hand3D), 4); err != nil {
		t.Errorf("hand 3D tree: %v", err)
	}
	// A 3D tree reported as the 2D tree has rank 3's extra frames.
	if err := compareTree("2D", ref2, handTree(hand3D), 4); err == nil {
		t.Error("2D check accepted the 3D tree")
	}
	// One extra member on one label.
	wrong := handTree(hand2D)
	wrong.AddStack(1, mpisim.FnStart, mpisim.FnMain, mpisim.FnWaitall)
	if err := compareTree("2D", ref2, wrong, 4); err == nil {
		t.Error("2D check accepted a tree with rank 1 under PMPI_Waitall")
	}

	classes := []trace.Class{
		{Path: strings.Split("_start_blrts/main/PMPI_Barrier/MPIDI_BGLGI_Barrier/BGLMP_GIBarrier/BGLML_pollfcn", "/"), Tasks: []int{0, 3}},
		{Path: strings.Split("_start_blrts/main/PMPI_Waitall/MPID_Progress_wait/BGLML_pollfcn/BGLML_Messager_advance/BGLML_Messager_CMadvance", "/"), Tasks: []int{2}},
		{Path: strings.Split("_start_blrts/main/do_SendOrStall/__gettimeofday", "/"), Tasks: []int{1}},
	}
	if err := checkClasses(classes, ref2, 4); err != nil {
		t.Errorf("hand classes: %v", err)
	}
	if err := checkClasses(handTree(hand2D).EquivalenceClasses(), ref2, 4); err != nil {
		t.Errorf("classes of the hand tree: %v", err)
	}
	split := slices.Clone(classes)
	split[0] = trace.Class{Path: classes[0].Path, Tasks: []int{0}}
	if err := checkClasses(split, ref2, 4); err == nil {
		t.Error("classes check accepted a partition missing rank 3")
	}
	merged := slices.Clone(classes[:2])
	merged[0] = trace.Class{Path: classes[0].Path, Tasks: []int{0, 1, 3}}
	if err := checkClasses(merged, ref2, 4); err == nil {
		t.Error("classes check accepted rank 1 in the barrier class")
	}
}

func TestPropertiesByHand(t *testing.T) {
	res := &core.Result{Tree2D: handTree(hand2D), Tree3D: handTree(hand3D)}
	if err := checkProperties(res, 4); err != nil {
		t.Errorf("hand trees: %v", err)
	}
	res.Tree3D = handTree(hand2D)
	res.Tree2D = handTree(hand3D)
	if err := checkProperties(res, 4); err == nil {
		t.Error("accepted a 2D tree with a path the 3D tree lacks")
	}
	res.Tree2D = trace.NewTree(4)
	res.Tree2D.AddStack(0, hung...)
	if err := checkProperties(res, 4); err == nil {
		t.Error("accepted a 2D root covering one of four tasks")
	}
}

// Every workload's shape, run small through a real session, matches its
// reference and passes the property checks.
func TestWorkloadsMatchReference(t *testing.T) {
	const tasks = 8192
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opts, err := w.options(tasks, sessionSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			opts.Stream = w.rounds
			tool, err := core.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tool.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := firstErr(res.LaunchErr, res.MergeErr, checkSession(res, tasks, w)); err != nil {
				t.Fatal(err)
			}
			classes := res.Classes
			if w.monitor() {
				classes = res.Tree2D.EquivalenceClasses()
			}
			if err := checkReference(opts.App.StackFuncs, res, classes, tasks, opts.Samples, w.rounds); err != nil {
				t.Fatal(err)
			}
			// The previous round's reference must not match a drifting
			// application's final round.
			if w.name == "monitor-208k-drift" {
				if err := checkReference(opts.App.StackFuncs, res, classes, tasks, opts.Samples, w.rounds-1); err == nil {
					t.Error("final trees matched the previous round's reference")
				}
			}
		})
	}
}

// BENCHMARK.json names exactly the metrics the command prints, with the
// same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !slices.Equal(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, specNames)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	if want := []string{"setup_s s", "first_tree_s s", "steady_round_s s", "peak_heap_mb MB", "frontend_kb_per_round KB"}; !slices.Equal(e2e, want) {
		t.Errorf("end-to-end metrics %v, the command prints %v", e2e, want)
	}
	if len(spec.PerLayer) != len(layerTable) {
		t.Fatalf("%d per-layer metrics, the command prints %d", len(spec.PerLayer), len(layerTable))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerTable[i].name || m.Unit != layerTable[i].unit {
			t.Errorf("per-layer metric %d is %s %s, the command prints %s %s", i, m.Name, m.Unit, layerTable[i].name, layerTable[i].unit)
		}
	}
}
