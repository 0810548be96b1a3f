package tbon

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stat/internal/topology"
	"stat/internal/trace"
)

// The differential harness: every configuration must produce byte-identical
// output and identical traffic statistics on the same reduction, for any
// filter associative over ordered inputs, on any topology shape. The
// topology generator covers the adversarial corners —
// fanout 1, a single leaf, deep chains, ragged trees — plus the paper's
// machine layouts.

func diffTopologies(t *testing.T) map[string]*topology.Tree {
	t.Helper()
	topos := map[string]*topology.Tree{}
	add := func(name string, tr *topology.Tree, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		topos[name] = tr
	}
	tr, err := topology.Flat(1)
	add("single-leaf", tr, err)
	tr, err = topology.Flat(8)
	add("flat-8", tr, err)
	tr, err = topology.Chain(7)
	add("chain-7", tr, err)
	tr, err = topology.Balanced(3, 64)
	add("balanced-3deep-64", tr, err)
	tr, err = topology.BGL3Deep(100)
	add("bgl-3deep-100", tr, err)
	for seed := uint64(1); seed <= 6; seed++ {
		tr, err = topology.Ragged(seed, 1+int(seed)%4, 5)
		add(fmt.Sprintf("ragged-%d", seed), tr, err)
	}
	return topos
}

// randomPayloads builds deterministic per-leaf payloads with adversarial
// size variation: empty, tiny, and multi-KB payloads in one tree.
func randomPayloads(seed int64, leaves int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, leaves)
	for i := range out {
		var n int
		switch rng.Intn(4) {
		case 0:
			n = 0
		case 1:
			n = rng.Intn(16)
		case 2:
			n = 64 + rng.Intn(512)
		default:
			n = 1024 + rng.Intn(4096)
		}
		out[i] = make([]byte, n)
		rng.Read(out[i])
	}
	return out
}

// assertStatsMatch compares every traffic counter except the
// engine-specific PeakInFlightBytes.
func assertStatsMatch(t *testing.T, label string, want, got *Stats) {
	t.Helper()
	if !reflect.DeepEqual(want.NodeInBytes, got.NodeInBytes) {
		t.Errorf("%s: NodeInBytes differ\nwant %v\ngot  %v", label, want.NodeInBytes, got.NodeInBytes)
	}
	if !reflect.DeepEqual(want.NodeOutBytes, got.NodeOutBytes) {
		t.Errorf("%s: NodeOutBytes differ\nwant %v\ngot  %v", label, want.NodeOutBytes, got.NodeOutBytes)
	}
	if !reflect.DeepEqual(want.LevelInBytes, got.LevelInBytes) {
		t.Errorf("%s: LevelInBytes differ\nwant %v\ngot  %v", label, want.LevelInBytes, got.LevelInBytes)
	}
	if want.Packets != got.Packets {
		t.Errorf("%s: Packets %d vs %d", label, want.Packets, got.Packets)
	}
}

// seqFold is the differential reference: the engine on one
// worker produces and folds every payload strictly in post-order — the
// plain sequential fold.
var seqFold = ReduceOptions{Workers: 1}

// engineVariants are the configurations every differential case checks
// against seqFold: several worker counts under the default per-worker
// payload bound, a roomy byte budget on one and on eight workers (every
// node defers until its whole child row arrives and folds it k-way), a
// moderate byte budget, and a pathological 1-byte budget (fully
// serialized by head-of-line admission, pairwise folds) on one and on
// several workers.
func engineVariants() map[string]ReduceOptions {
	return map[string]ReduceOptions{
		"kway/w=1":               {Workers: 1, BudgetBytes: 1 << 30},
		"kway/w=8":               {Workers: 8, BudgetBytes: 1 << 30},
		"pipelined":              {},
		"pipelined/w=2":          {Workers: 2},
		"pipelined/w=4":          {Workers: 4},
		"pipelined/w=8":          {Workers: 8},
		"pipelined/w=1/budget=1": {Workers: 1, BudgetBytes: 1},
		"pipelined/budget=1":     {Workers: 4, BudgetBytes: 1},
		"pipelined/b=4KiB":       {Workers: 8, BudgetBytes: 4 << 10},
	}
}

// assertVariantsMatch runs the reduction under seqFold and every engine
// variant, requiring byte-identical output and identical traffic stats.
// It returns the reference output.
func assertVariantsMatch(t *testing.T, label string, net *Network, leaf func(int) ([]byte, error), filter Filter) []byte {
	t.Helper()
	wantOut, wantStats, err := net.ReduceWith(seqFold, leaf, filter)
	if err != nil {
		t.Fatalf("%s: seq: %v", label, err)
	}
	for vname, opts := range engineVariants() {
		gotOut, gotStats, err := net.ReduceWith(opts, leaf, filter)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, vname, err)
		}
		if !bytes.Equal(wantOut, gotOut) {
			t.Fatalf("%s/%s: output differs from the sequential fold (%d vs %d bytes)",
				label, vname, len(gotOut), len(wantOut))
		}
		assertStatsMatch(t, label+"/"+vname, wantStats, gotStats)
	}
	return wantOut
}

func TestDifferentialConcatFilter(t *testing.T) {
	// Pure concatenation (concatFilter) is associative over ordered
	// inputs and preserves byte order, so any reordering or dropped
	// payload shows up directly.
	concat := concatFilter
	for name, topo := range diffTopologies(t) {
		for trial := int64(0); trial < 3; trial++ {
			payloads := randomPayloads(trial*977+int64(len(name)), topo.NumLeaves())
			leaf := func(i int) ([]byte, error) { return payloads[i], nil }
			net := New(topo)

			assertVariantsMatch(t, fmt.Sprintf("%s trial %d", name, trial), net, leaf, concat)
		}
	}
}

func TestDifferentialTraceMergeFilter(t *testing.T) {
	// The real workload: every leaf contributes a subtree-local prefix
	// tree, interior nodes merge by hierarchical concatenation. This is
	// the paper's optimized representation running through every variant.
	const tasksPerLeaf = 3
	mergeFilter := BytesFilter(func(children [][]byte) ([]byte, error) {
		trees := make([]*trace.Tree, len(children))
		for i, c := range children {
			var err error
			trees[i], err = trace.UnmarshalBinary(c)
			if err != nil {
				return nil, err
			}
		}
		merged := trace.NewCodec().MergeConcat(trees...)
		out, err := merged.MarshalBinaryV(trace.WireV2)
		if err != nil {
			return nil, err
		}
		for _, tr := range trees {
			tr.Release()
		}
		merged.Release()
		return out, nil
	})
	funcs := []string{"start", "mainloop", "solver", "exchange", "wait", "io"}
	for name, topo := range diffTopologies(t) {
		rng := rand.New(rand.NewSource(int64(len(name)) * 131))
		stacks := make([][][]string, topo.NumLeaves())
		for i := range stacks {
			stacks[i] = make([][]string, tasksPerLeaf)
			for task := range stacks[i] {
				depth := 1 + rng.Intn(4)
				path := make([]string, depth)
				for d := range path {
					path[d] = funcs[rng.Intn(len(funcs))]
				}
				stacks[i][task] = path
			}
		}
		leaf := func(i int) ([]byte, error) {
			tr := trace.NewTree(tasksPerLeaf)
			for task, path := range stacks[i] {
				tr.AddStack(task, path...)
			}
			b, err := tr.MarshalBinaryV(trace.WireV2)
			tr.Release()
			return b, err
		}
		net := New(topo)

		wantOut := assertVariantsMatch(t, name, net, leaf, mergeFilter)
		wantTree, err := trace.UnmarshalBinary(wantOut)
		if err != nil {
			t.Fatalf("%s: seq output does not decode: %v", name, err)
		}
		if wantTree.NumTasks != topo.NumLeaves()*tasksPerLeaf {
			t.Fatalf("%s: merged task space %d, want %d", name, wantTree.NumTasks, topo.NumLeaves()*tasksPerLeaf)
		}
	}
}

func TestDifferentialUnionMergeFilter(t *testing.T) {
	// The original representation: full-width labels merging by union.
	const width = 24
	unionFilter := BytesFilter(func(children [][]byte) ([]byte, error) {
		acc, err := trace.UnmarshalBinary(children[0])
		if err != nil {
			return nil, err
		}
		for _, c := range children[1:] {
			src, err := trace.UnmarshalBinary(c)
			if err != nil {
				return nil, err
			}
			if err := trace.MergeUnion(acc, src); err != nil {
				return nil, err
			}
			src.Release()
		}
		out, err := acc.MarshalBinaryV(trace.WireV2)
		acc.Release()
		return out, err
	})
	topo, err := topology.Ragged(99, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	leaf := func(i int) ([]byte, error) {
		tr := trace.NewTree(width)
		tr.AddStack(i%width, "main", fmt.Sprintf("f%d", i%5), "leafwork")
		tr.AddStack((i*7)%width, "main", "common")
		b, err := tr.MarshalBinaryV(trace.WireV2)
		tr.Release()
		return b, err
	}
	net := New(topo)
	assertVariantsMatch(t, "ragged-99", net, leaf, unionFilter)
}
