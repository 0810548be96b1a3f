package trace

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"stat/internal/bitvec"
)

func stack(fns ...string) []Frame {
	out := make([]Frame, len(fns))
	for i, f := range fns {
		out[i] = Frame{Function: f}
	}
	return out
}

func TestAddBuildsPrefixTree(t *testing.T) {
	tr := NewTree(4)
	tr.AddStack(0, "main", "a", "b")
	tr.AddStack(1, "main", "a", "c")
	tr.AddStack(2, "main", "a")
	tr.AddStack(3, "main", "d")

	if got := tr.NodeCount(); got != 5 {
		t.Errorf("NodeCount = %d, want 5 (main,a,b,c,d)", got)
	}
	if got := tr.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	main := tr.Root.Children[0]
	if main.Frame.Function != "main" || main.Tasks.Count() != 4 {
		t.Errorf("main node: %v %v", main.Frame, main.Tasks)
	}
	a := main.child("a")
	if a == nil || !reflect.DeepEqual(a.Tasks.Members(), []int{0, 1, 2}) {
		t.Errorf("a node tasks = %v", a.Tasks.Members())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAddIdempotent(t *testing.T) {
	tr := NewTree(2)
	tr.AddStack(0, "main", "x")
	before := tr.String()
	tr.AddStack(0, "main", "x")
	if tr.String() != before {
		t.Errorf("re-adding a trace changed the tree")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range task")
		}
	}()
	NewTree(2).AddStack(5, "main")
}

func TestChildrenSorted(t *testing.T) {
	tr := NewTree(3)
	tr.AddStack(0, "main", "zeta")
	tr.AddStack(1, "main", "alpha")
	tr.AddStack(2, "main", "mid")
	main := tr.Root.Children[0]
	var names []string
	for _, c := range main.Children {
		names = append(names, c.Frame.Function)
	}
	if !reflect.DeepEqual(names, []string{"alpha", "mid", "zeta"}) {
		t.Errorf("children order = %v", names)
	}
}

func TestMergeUnion(t *testing.T) {
	a := NewTree(4)
	a.AddStack(0, "main", "x")
	a.AddStack(2, "main", "y")
	b := NewTree(4)
	b.AddStack(1, "main", "x")
	b.AddStack(3, "main", "z")

	if err := MergeUnion(a, b); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	main := a.Root.Children[0]
	if main.Tasks.Count() != 4 {
		t.Errorf("main tasks = %v", main.Tasks)
	}
	x := main.child("x")
	if x == nil || !reflect.DeepEqual(x.Tasks.Members(), []int{0, 1}) {
		t.Errorf("x tasks = %v", x.Tasks.Members())
	}
	if main.child("z") == nil {
		t.Error("z branch missing after union")
	}
	// Mismatched widths must error.
	if err := MergeUnion(a, NewTree(5)); err == nil {
		t.Error("union of different task spaces accepted")
	}
}

// mergeConcat merges through a fresh codec: the merge the filters run.
func mergeConcat(trees ...*Tree) *Tree { return NewCodec().MergeConcat(trees...) }

// remapDecode remaps a tree the way the front end does: encode it, then
// decode with the rank permutation fused in.
func remapDecode(t *Tree, perm []int, width int) (*Tree, error) {
	r, err := bitvec.NewRemapper(perm, width)
	if err != nil {
		return nil, err
	}
	wire, err := t.MarshalBinaryV(WireV3)
	if err != nil {
		return nil, err
	}
	return Decode(wire, DecodeOpts{Remap: r})
}

func TestMergeConcat(t *testing.T) {
	// Daemon 0 holds 2 tasks, daemon 1 holds 3.
	d0 := NewTree(2)
	d0.AddStack(0, "main", "x")
	d0.AddStack(1, "main", "y")
	d1 := NewTree(3)
	d1.AddStack(0, "main", "x")
	d1.AddStack(1, "main", "y")
	d1.AddStack(2, "main", "hang")

	m := mergeConcat(d0, d1)
	if m.NumTasks != 5 {
		t.Fatalf("NumTasks = %d, want 5", m.NumTasks)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	main := m.Root.Children[0]
	if main.Tasks.Count() != 5 {
		t.Errorf("main label = %v", main.Tasks)
	}
	x := main.child("x")
	// d0 task 0 stays index 0; d1 task 0 becomes index 2.
	if !reflect.DeepEqual(x.Tasks.Members(), []int{0, 2}) {
		t.Errorf("x label = %v", x.Tasks.Members())
	}
	hang := main.child("hang")
	if !reflect.DeepEqual(hang.Tasks.Members(), []int{4}) {
		t.Errorf("hang label = %v", hang.Tasks.Members())
	}
}

func TestMergeConcatAssociative(t *testing.T) {
	// The pipelined reduction folds pairwise; the result must match the
	// all-at-once merge.
	mk := func(n int, seed int64) *Tree {
		r := rand.New(rand.NewSource(seed))
		tr := NewTree(n)
		for i := 0; i < n; i++ {
			switch r.Intn(3) {
			case 0:
				tr.AddStack(i, "main", "a", "b")
			case 1:
				tr.AddStack(i, "main", "a", "c")
			default:
				tr.AddStack(i, "main", "d")
			}
		}
		return tr
	}
	a, b, c := mk(3, 1), mk(4, 2), mk(5, 3)
	allAtOnce := mergeConcat(a, b, c)
	folded := mergeConcat(mergeConcat(a, b), c)
	if !allAtOnce.Equal(folded) {
		t.Errorf("concat merge not associative:\n%s\nvs\n%s", allAtOnce, folded)
	}
}

func TestRemapTree(t *testing.T) {
	// Concatenated daemon order: d0={ranks 0,2}, d1={ranks 1,3}.
	d0 := NewTree(2)
	d0.AddStack(0, "main", "x") // rank 0
	d0.AddStack(1, "main", "y") // rank 2
	d1 := NewTree(2)
	d1.AddStack(0, "main", "x") // rank 1
	d1.AddStack(1, "main", "y") // rank 3
	m, err := remapDecode(mergeConcat(d0, d1), []int{0, 2, 1, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := m.Root.Children[0].child("x")
	if !reflect.DeepEqual(x.Tasks.Members(), []int{0, 1}) {
		t.Errorf("x after remap = %v, want ranks [0 1]", x.Tasks.Members())
	}
	y := m.Root.Children[0].child("y")
	if !reflect.DeepEqual(y.Tasks.Members(), []int{2, 3}) {
		t.Errorf("y after remap = %v, want ranks [2 3]", y.Tasks.Members())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := NewTree(2)
	a.AddStack(0, "main", "x")
	b := a.Clone()
	b.AddStack(1, "main", "y")
	if a.Equal(b) {
		t.Error("mutating clone affected original (or Equal broken)")
	}
	if a.Root.Children[0].child("y") != nil {
		t.Error("clone shares nodes with original")
	}
}

func TestEquivalenceClasses(t *testing.T) {
	tr := NewTree(6)
	// 4 tasks in the barrier, 1 hung, 1 in waitall.
	for _, task := range []int{0, 3, 4, 5} {
		tr.AddStack(task, "main", "PMPI_Barrier", "poll")
	}
	tr.AddStack(1, "main", "do_SendOrStall")
	tr.AddStack(2, "main", "PMPI_Waitall")

	classes := tr.EquivalenceClasses()
	if len(classes) != 3 {
		t.Fatalf("got %d classes: %v", len(classes), classes)
	}
	// Sorted by descending size: barrier class first.
	if !reflect.DeepEqual(classes[0].Tasks, []int{0, 3, 4, 5}) {
		t.Errorf("largest class = %v", classes[0])
	}
	if classes[0].Path[len(classes[0].Path)-1] != "poll" {
		t.Errorf("largest class path = %v", classes[0].Path)
	}
	for _, c := range classes[1:] {
		if len(c.Tasks) != 1 {
			t.Errorf("singleton class expected, got %v", c)
		}
	}
	if classes[1].Representative() < 0 {
		t.Error("Representative on non-empty class < 0")
	}
}

func TestEquivalenceClassesMidPathResidual(t *testing.T) {
	// A task whose stack ends where others continue forms its own class at
	// the interior node.
	tr := NewTree(3)
	tr.AddStack(0, "main", "a")
	tr.AddStack(1, "main", "a", "b")
	tr.AddStack(2, "main", "a", "b")
	classes := tr.EquivalenceClasses()
	if len(classes) != 2 {
		t.Fatalf("classes = %v", classes)
	}
	var foundMid bool
	for _, c := range classes {
		if len(c.Tasks) == 1 && c.Tasks[0] == 0 && c.Path[len(c.Path)-1] == "a" {
			foundMid = true
		}
	}
	if !foundMid {
		t.Errorf("no mid-path class for task 0: %v", classes)
	}
}

func TestStringRendering(t *testing.T) {
	tr := NewTree(2)
	tr.AddStack(0, "main", "x")
	tr.AddStack(1, "main")
	s := tr.String()
	if !strings.Contains(s, "main 2:[0-1]") {
		t.Errorf("String output missing merged label:\n%s", s)
	}
	if !strings.Contains(s, "x 1:[0]") {
		t.Errorf("String output missing leaf label:\n%s", s)
	}
}

// randomTree builds an arbitrary valid tree for property tests.
func randomTree(r *rand.Rand, n int) *Tree {
	tr := NewTree(n)
	funcs := []string{"a", "b", "c", "d", "e"}
	for task := 0; task < n; task++ {
		depth := 1 + r.Intn(5)
		fs := []string{"main"}
		for i := 0; i < depth; i++ {
			fs = append(fs, funcs[r.Intn(len(funcs))])
		}
		tr.AddStack(task, fs...)
	}
	return tr
}

func TestQuickValidateAfterRandomBuild(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 1+r.Intn(60))
		return tr.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeUnionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		a1, b1 := randomTree(r, n), randomTree(r, n)
		a2, b2 := a1.Clone(), b1.Clone()
		if MergeUnion(a1, b1) != nil || MergeUnion(b2, a2) != nil {
			return false
		}
		return a1.Equal(b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickConcatThenRemapEqualsUnionOfGlobal(t *testing.T) {
	// End-to-end data-structure invariant (the heart of Section V): merging
	// subtree-local trees by concatenation and remapping at the root gives
	// exactly the tree the original scheme would have produced.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		daemons := 1 + r.Intn(6)
		local := make([][]int, daemons)
		for rank := 0; rank < n; rank++ {
			d := rank % daemons
			local[d] = append(local[d], rank)
		}
		funcs := []string{"a", "b", "c"}
		stackFor := func(rank int) []string {
			rr := rand.New(rand.NewSource(int64(rank) * seed))
			fs := []string{"main"}
			for i := 0; i < 1+rr.Intn(3); i++ {
				fs = append(fs, funcs[rr.Intn(len(funcs))])
			}
			return fs
		}

		// Original scheme: one global tree.
		global := NewTree(n)
		for rank := 0; rank < n; rank++ {
			global.AddStack(rank, stackFor(rank)...)
		}

		// Optimized scheme: per-daemon local trees, concat, remap.
		parts := make([]*Tree, daemons)
		var perm []int
		for d := 0; d < daemons; d++ {
			parts[d] = NewTree(len(local[d]))
			for i, rank := range local[d] {
				parts[d].AddStack(i, stackFor(rank)...)
				perm = append(perm, rank)
			}
		}
		merged, err := remapDecode(mergeConcat(parts...), perm, n)
		if err != nil {
			return false
		}
		return merged.Equal(global)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
