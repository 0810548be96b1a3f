package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"stat/internal/bitvec"
	"stat/internal/core"
	"stat/internal/trace"
)

// The reference check rebuilds a round's expected prefix trees from the
// application's stacks alone — function names from mpisim's canonical
// function table, task sets kept here — and compares them path by path
// and member by member with the trees the session merged. Nothing in it
// goes through the tool's walker, symbol tables, codecs or overlay.

// stackSource yields one thread's function path at one sample instant,
// outermost frame first (mpisim.App.StackFuncs).
type stackSource func(task, thread, sample int) []string

// refNode is one node of a reference prefix tree.
type refNode struct {
	children map[string]*refNode
	// members are the tasks whose path passes through the node,
	// ascending (tasks are inserted in order).
	members []int32
	// id numbers the node within its tree; a 2D leaf id names one
	// distinct last-sample path.
	id int
}

// refTree is a reference prefix tree over tasks [0, tasks).
type refTree struct {
	root  refNode
	nodes int
	// ends[task] is the id of the node where the task's last inserted
	// path ended (2D trees: its equivalence-class path).
	ends []int
}

func newRefTree(tasks int) *refTree {
	return &refTree{root: refNode{children: map[string]*refNode{}}, nodes: 1, ends: make([]int, tasks)}
}

// add inserts one path for task. Tasks must arrive in ascending order;
// repeated paths of the same task are idempotent.
func (t *refTree) add(task int, path []string) {
	n := &t.root
	n.note(task)
	for _, f := range path {
		c := n.children[f]
		if c == nil {
			c = &refNode{children: map[string]*refNode{}, id: t.nodes}
			t.nodes++
			n.children[f] = c
		}
		c.note(task)
		n = c
	}
	t.ends[task] = n.id
}

func (n *refNode) note(task int) {
	if k := len(n.members); k == 0 || n.members[k-1] != int32(task) {
		n.members = append(n.members, int32(task))
	}
}

// lookup follows path from the root; nil when absent.
func (t *refTree) lookup(path []string) *refNode {
	n := &t.root
	for _, f := range path {
		if n = n.children[f]; n == nil {
			return nil
		}
	}
	return n
}

// buildReference builds round r's expected 2D tree (each task's last
// sample) and 3D tree (all of the round's samples). Round r samples
// instants r·samples … r·samples+samples−1, as the daemons' epochs do.
func buildReference(stacks stackSource, tasks, threads, samples, round int) (t2, t3 *refTree) {
	t2, t3 = newRefTree(tasks), newRefTree(tasks)
	first := round * samples
	for task := 0; task < tasks; task++ {
		for thread := 0; thread < threads; thread++ {
			for s := first; s < first+samples; s++ {
				path := stacks(task, thread, s)
				t3.add(task, path)
				if s == first+samples-1 {
					t2.add(task, path)
				}
			}
		}
	}
	return t2, t3
}

// compareTree checks a merged tree against its reference: the same
// children at every path, and labels with exactly the reference members.
func compareTree(kind string, ref *refTree, got *trace.Tree, tasks int) error {
	if got == nil || got.Root == nil {
		return fmt.Errorf("%s tree missing", kind)
	}
	if got.NumTasks != tasks {
		return fmt.Errorf("%s tree spans %d tasks, want %d", kind, got.NumTasks, tasks)
	}
	var path []string
	var rec func(r *refNode, n *trace.Node) error
	rec = func(r *refNode, n *trace.Node) error {
		if err := sameMembers(r.members, n.Tasks); err != nil {
			return fmt.Errorf("%s tree at /%s: %v", kind, strings.Join(path, "/"), err)
		}
		if len(n.Children) != len(r.children) {
			return fmt.Errorf("%s tree at /%s: %d children, reference has %d (%s)",
				kind, strings.Join(path, "/"), len(n.Children), len(r.children), childNames(r))
		}
		for _, c := range n.Children {
			rc := r.children[c.Frame.Function]
			if rc == nil {
				return fmt.Errorf("%s tree at /%s: unexpected child %q", kind, strings.Join(path, "/"), c.Frame.Function)
			}
			path = append(path, c.Frame.Function)
			if err := rec(rc, c); err != nil {
				return err
			}
			path = path[:len(path)-1]
		}
		return nil
	}
	return rec(&ref.root, got.Root)
}

func childNames(r *refNode) string {
	names := make([]string, 0, len(r.children))
	for name := range r.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func sameMembers(want []int32, got bitvec.Label) error {
	if got.Count() != len(want) {
		return fmt.Errorf("label has %d members, reference %d", got.Count(), len(want))
	}
	for i, m := range got.Members() {
		if int32(m) != want[i] {
			return fmt.Errorf("label member %d is rank %d, reference rank %d", i, m, want[i])
		}
	}
	return nil
}

// sameTrees compares two merged trees node by node and member by member.
func sameTrees(a, b *trace.Tree) error {
	if a.NumTasks != b.NumTasks {
		return fmt.Errorf("task spaces differ: %d vs %d", a.NumTasks, b.NumTasks)
	}
	var rec func(x, y *trace.Node, path string) error
	rec = func(x, y *trace.Node, path string) error {
		if !slices.Equal(x.Tasks.Members(), y.Tasks.Members()) {
			return fmt.Errorf("labels differ at /%s", path)
		}
		if len(x.Children) != len(y.Children) {
			return fmt.Errorf("child counts differ at /%s", path)
		}
		for i, c := range x.Children {
			if c.Frame.Function != y.Children[i].Frame.Function {
				return fmt.Errorf("children differ at /%s", path)
			}
			if err := rec(c, y.Children[i], path+"/"+c.Frame.Function); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(a.Root, b.Root, "")
}

// checkProperties checks what must hold of every session's result,
// without the reference: full coverage, and 3D labels containing the 2D
// labels at the same paths.
func checkProperties(res *core.Result, tasks int) error {
	if res.MissingRanks != 0 || res.Liveness != nil {
		return fmt.Errorf("%d ranks missing from a fault-free gather", res.MissingRanks)
	}
	for kind, t := range map[string]*trace.Tree{"2D": res.Tree2D, "3D": res.Tree3D} {
		if t == nil || t.Root == nil {
			return fmt.Errorf("%s tree missing", kind)
		}
		if t.NumTasks != tasks || t.Root.Tasks.Count() != tasks {
			return fmt.Errorf("%s root covers %d of %d tasks (width %d)", kind, t.Root.Tasks.Count(), tasks, t.NumTasks)
		}
	}
	var rec func(n2, n3 *trace.Node, path string) error
	rec = func(n2, n3 *trace.Node, path string) error {
		for _, m := range n2.Tasks.Members() {
			if !n3.Tasks.Get(m) {
				return fmt.Errorf("rank %d is in the 2D label at /%s but not the 3D label", m, path)
			}
		}
		for _, c2 := range n2.Children {
			var c3 *trace.Node
			for _, c := range n3.Children {
				if c.Frame.Function == c2.Frame.Function {
					c3 = c
					break
				}
			}
			if c3 == nil {
				return fmt.Errorf("2D path /%s/%s is missing from the 3D tree", path, c2.Frame.Function)
			}
			if err := rec(c2, c3, path+"/"+c2.Frame.Function); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(res.Tree2D.Root, res.Tree3D.Root, "")
}

// checkClasses checks that the equivalence classes partition [0, tasks)
// and that two ranks share a class exactly when the reference gives them
// the same last-sample path.
func checkClasses(classes []trace.Class, ref2 *refTree, tasks int) error {
	seen := make([]bool, tasks)
	paths := map[int]bool{}
	for _, c := range classes {
		node := ref2.lookup(c.Path)
		if node == nil {
			return fmt.Errorf("class path /%s is not in the reference", strings.Join(c.Path, "/"))
		}
		if paths[node.id] {
			return fmt.Errorf("two classes share path /%s", strings.Join(c.Path, "/"))
		}
		paths[node.id] = true
		for _, m := range c.Tasks {
			if m < 0 || m >= tasks || seen[m] {
				return fmt.Errorf("rank %d is in two classes or out of range", m)
			}
			seen[m] = true
			if ref2.ends[m] != node.id {
				return fmt.Errorf("rank %d is classed at /%s, its last-sample path ends elsewhere", m, strings.Join(c.Path, "/"))
			}
		}
	}
	for m, ok := range seen {
		if !ok {
			return fmt.Errorf("rank %d is in no class", m)
		}
	}
	distinct := map[int]bool{}
	for _, id := range ref2.ends {
		distinct[id] = true
	}
	if len(distinct) != len(paths) {
		return fmt.Errorf("%d classes for %d distinct last-sample paths", len(paths), len(distinct))
	}
	return nil
}

// checkReference runs the full reference check on a session's final
// round: both trees against the rebuilt reference, and the classes.
func checkReference(stacks stackSource, res *core.Result, classes []trace.Class, tasks, samples, round int) error {
	// Every workload samples one thread per task.
	ref2, ref3 := buildReference(stacks, tasks, 1, samples, round)
	if err := compareTree("2D", ref2, res.Tree2D, tasks); err != nil {
		return err
	}
	if err := compareTree("3D", ref3, res.Tree3D, tasks); err != nil {
		return err
	}
	return checkClasses(classes, ref2, tasks)
}
