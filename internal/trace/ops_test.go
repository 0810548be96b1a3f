package trace

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"stat/internal/bitvec"
)

func buildHangTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree(8)
	for _, task := range []int{0, 3, 4, 5, 6, 7} {
		tr.AddStack(task, "main", "PMPI_Barrier", "poll")
	}
	tr.AddStack(1, "main", "do_SendOrStall")
	tr.AddStack(2, "main", "PMPI_Waitall", "progress")
	return tr
}

func TestFocus(t *testing.T) {
	tr := buildHangTree(t)
	focused, err := tr.Focus(bitvec.FromMembers(8, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := focused.Validate(); err != nil {
		t.Fatal(err)
	}
	// The barrier branch vanished; both suspect branches remain.
	if focused.Root.Children[0].child("PMPI_Barrier") != nil {
		t.Error("focus kept the barrier branch")
	}
	if focused.Root.Children[0].child("do_SendOrStall") == nil {
		t.Error("focus dropped the hung branch")
	}
	if got := focused.Root.Tasks.Members(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("focused root = %v", got)
	}
	// Task space unchanged (labels stay comparable with the original).
	if focused.NumTasks != tr.NumTasks {
		t.Errorf("focus changed task space to %d", focused.NumTasks)
	}
}

func TestFocusEmptyAndErrors(t *testing.T) {
	tr := buildHangTree(t)
	empty, err := tr.Focus(bitvec.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if empty.NodeCount() != 0 {
		t.Errorf("empty focus has %d nodes", empty.NodeCount())
	}
	if _, err := tr.Focus(bitvec.New(9)); err == nil {
		t.Error("width mismatch accepted")
	}
}

func TestPathTo(t *testing.T) {
	tr := buildHangTree(t)
	if got := tr.PathTo(1); !reflect.DeepEqual(got, []string{"main", "do_SendOrStall"}) {
		t.Errorf("PathTo(1) = %v", got)
	}
	if got := tr.PathTo(0); !reflect.DeepEqual(got, []string{"main", "PMPI_Barrier", "poll"}) {
		t.Errorf("PathTo(0) = %v", got)
	}
	if got := tr.PathTo(-1); got != nil {
		t.Errorf("PathTo(-1) = %v", got)
	}
	// A tree that never saw the task.
	sparse := NewTree(8)
	sparse.AddStack(0, "main")
	if got := sparse.PathTo(5); got != nil {
		t.Errorf("PathTo(unsampled) = %v", got)
	}
}

func TestDiffDetectsMovement(t *testing.T) {
	before := buildHangTree(t)
	after := NewTree(8)
	// Everyone except the hung pair advanced to a new frame.
	for _, task := range []int{0, 3, 4, 5, 6, 7} {
		after.AddStack(task, "main", "PMPI_Barrier", "poll2")
	}
	after.AddStack(1, "main", "do_SendOrStall")
	after.AddStack(2, "main", "PMPI_Waitall", "progress")

	entries, err := Diff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no diff for moved tasks")
	}
	var sawOld, sawNew bool
	for _, e := range entries {
		last := e.Path[len(e.Path)-1]
		if last == "poll" && e.InA == 6 && e.InB == 0 {
			sawOld = true
		}
		if last == "poll2" && e.InA == 0 && e.InB == 6 {
			sawNew = true
		}
		if last == "do_SendOrStall" {
			t.Errorf("hung branch diffed: %v", e)
		}
	}
	if !sawOld || !sawNew {
		t.Errorf("diff missing movement: %v", entries)
	}
}

func TestDiffIdenticalIsEmpty(t *testing.T) {
	a := buildHangTree(t)
	b := buildHangTree(t)
	entries, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("identical trees diff: %v", entries)
	}
	if _, err := Diff(a, NewTree(9)); err == nil {
		t.Error("mismatched spaces accepted")
	}
}

func TestStable(t *testing.T) {
	before := buildHangTree(t)
	after := NewTree(8)
	for _, task := range []int{0, 3, 4, 5, 6, 7} {
		after.AddStack(task, "main", "PMPI_Barrier", "poll2") // moved
	}
	after.AddStack(1, "main", "do_SendOrStall")           // stuck
	after.AddStack(2, "main", "PMPI_Waitall", "progress") // stuck

	stable, err := Stable(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if got := stable.Members(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("stable tasks = %v, want the hung pair [1 2]", got)
	}
}

func TestPathsTo(t *testing.T) {
	tr := NewTree(4)
	// Task 0 observed at two distinct depths of one chain and on a
	// separate branch: prefix-nested paths collapse to the deepest, the
	// disjoint branch stays.
	tr.AddStack(0, "main", "a")
	tr.AddStack(0, "main", "a", "b")
	tr.AddStack(0, "main", "z")
	tr.AddStack(1, "main", "a")

	paths := tr.PathsTo(0)
	if len(paths) != 2 {
		t.Fatalf("PathsTo(0) = %v, want 2 maximal paths", paths)
	}
	if !reflect.DeepEqual(paths[0], []string{"main", "a", "b"}) {
		t.Errorf("deep path = %v", paths[0])
	}
	if !reflect.DeepEqual(paths[1], []string{"main", "z"}) {
		t.Errorf("branch path = %v", paths[1])
	}
	if got := tr.PathsTo(1); len(got) != 1 || !reflect.DeepEqual(got[0], []string{"main", "a"}) {
		t.Errorf("PathsTo(1) = %v", got)
	}
	if got := tr.PathsTo(3); got != nil {
		t.Errorf("PathsTo(unsampled) = %v", got)
	}
	if got := tr.PathsTo(99); got != nil {
		t.Errorf("PathsTo(out of range) = %v", got)
	}
}

// TestQuickPathsToConsistent: PathTo returns one of PathsTo's entries,
// and every task in the root label has at least one maximal path.
func TestQuickPathsToConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		tr := randomTree(r, n)
		for task := 0; task < n; task++ {
			paths := tr.PathsTo(task)
			if len(paths) == 0 {
				return false
			}
			single := tr.PathTo(task)
			found := false
			for _, p := range paths {
				if reflect.DeepEqual(p, single) {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickFocusInvariants: focusing on any subset keeps (1) structural
// validity, (2) only tasks from the subset, (3) each kept task's full
// path.
func TestQuickFocusInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		tr := randomTree(r, n)
		set := bitvec.New(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				set.Set(i)
			}
		}
		focused, err := tr.Focus(set)
		if err != nil || focused.Validate() != nil {
			return false
		}
		rootMembers := focused.Root.Tasks.Clone()
		if err := rootMembers.AndNot(set); err != nil || !rootMembers.Empty() {
			return false // a task outside the set survived
		}
		for _, task := range set.Members() {
			if !reflect.DeepEqual(tr.PathTo(task), focused.PathTo(task)) {
				return false // focus changed a kept task's path
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickDiffSymmetry: Diff(a,b) and Diff(b,a) report the same paths
// with swapped counts.
func TestQuickDiffSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		a, b := randomTree(r, n), randomTree(r, n)
		ab, err := Diff(a, b)
		if err != nil {
			return false
		}
		ba, err := Diff(b, a)
		if err != nil {
			return false
		}
		if len(ab) != len(ba) {
			return false
		}
		for i := range ab {
			if !reflect.DeepEqual(ab[i].Path, ba[i].Path) ||
				ab[i].InA != ba[i].InB || ab[i].InB != ba[i].InA ||
				!reflect.DeepEqual(ab[i].Moved, ba[i].Moved) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
