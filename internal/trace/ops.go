package trace

import (
	"fmt"
	"sort"
	"strings"

	"stat/internal/bitvec"
)

// This file implements the front-end analysis operations STAT offers on a
// merged tree: focusing the view on a task subset (the user clicks an
// equivalence class and the tool re-renders only those tasks), extracting
// one task's current call path (what the heavyweight debugger will see on
// attach), and diffing two merged trees (comparing the application's state
// across two STAT invocations — how the authors confirmed a hang was not
// progressing).

// Focus returns a new tree restricted to the given task set: every label
// is intersected with the set and nodes whose labels become empty are
// dropped. The set's width must match the tree's task space.
func (t *Tree) Focus(tasks *bitvec.Vector) (*Tree, error) {
	if tasks.Len() != t.NumTasks {
		return nil, fmt.Errorf("trace: Focus set width %d, tree width %d", tasks.Len(), t.NumTasks)
	}
	out := NewTree(t.NumTasks)
	var rec func(src *Node) *Node
	rec = func(src *Node) *Node {
		label := src.Tasks.Clone()
		if err := label.IntersectWith(tasks); err != nil {
			panic(err) // widths checked above
		}
		if label.Empty() {
			return nil
		}
		n := &Node{Frame: src.Frame, Tasks: label}
		for _, c := range src.Children {
			if fc := rec(c); fc != nil {
				n.Children = append(n.Children, fc)
			}
		}
		return n
	}
	if root := rec(t.Root); root != nil {
		out.Root = root
	}
	return out, nil
}

// PathTo returns the deepest call path containing the task — in a 2D
// tree, the task's sampled stack. The sentinel root is excluded. A task
// with no trace returns nil.
func (t *Tree) PathTo(task int) []string {
	if task < 0 || task >= t.NumTasks {
		return nil
	}
	var path []string
	n := t.Root
	if !n.Tasks.Get(task) {
		return nil
	}
	for {
		var next *Node
		for _, c := range n.Children {
			if c.Tasks.Get(task) {
				next = c
				break
			}
		}
		if next == nil {
			return path
		}
		path = append(path, next.Frame.Function)
		n = next
	}
}

// PathsTo returns every maximal call path the task appears on — in a 3D
// tree, the set of distinct stacks observed for the task across all
// samples. A path is maximal when the task is absent from every child of
// its terminal node. Paths are returned in tree (sorted) order.
func (t *Tree) PathsTo(task int) [][]string {
	if task < 0 || task >= t.NumTasks {
		return nil
	}
	var out [][]string
	var rec func(n *Node, path []string)
	rec = func(n *Node, path []string) {
		if !n.Tasks.Get(task) {
			return
		}
		terminal := true
		for _, c := range n.Children {
			if c.Tasks.Get(task) {
				terminal = false
				rec(c, append(path, c.Frame.Function))
			}
		}
		if terminal && len(path) > 0 {
			out = append(out, append([]string(nil), path...))
		}
	}
	rec(t.Root, nil)
	return out
}

// DiffEntry describes one divergence between two trees.
type DiffEntry struct {
	// Path is the call path of the divergent node.
	Path []string
	// InA and InB are the member counts at that node in each tree; one of
	// them is zero when the path exists in only one tree.
	InA, InB int
	// Moved lists tasks present at this path in exactly one of the trees
	// (ascending).
	Moved []int
}

func (d DiffEntry) String() string {
	return fmt.Sprintf("%s: %d vs %d tasks (%d moved)",
		strings.Join(d.Path, " > "), d.InA, d.InB, len(d.Moved))
}

// Diff compares two trees over the same task space and returns every node
// where membership differs, sorted by path. Two consecutive STAT gathers
// of a healthy application differ in the progress-engine leaves; a hung
// application diffs empty — exactly the "is it actually hung?" check.
func Diff(a, b *Tree) ([]DiffEntry, error) {
	if a.NumTasks != b.NumTasks {
		return nil, fmt.Errorf("trace: Diff task spaces %d vs %d", a.NumTasks, b.NumTasks)
	}
	var out []DiffEntry
	// zero stands in for the label of a node absent from one tree; it is
	// only ever read.
	zero := bitvec.New(a.NumTasks)
	var rec func(na, nb *Node, path []string)
	rec = func(na, nb *Node, path []string) {
		var ta, tb bitvec.Label
		switch {
		case na != nil && nb != nil:
			ta, tb = na.Tasks, nb.Tasks
		case na != nil:
			ta, tb = na.Tasks, zero
		default:
			ta, tb = zero, nb.Tasks
		}
		if !bitvec.Equal(ta, tb) && len(path) > 0 {
			sym := ta.Clone()
			if err := sym.AndNotLabel(tb); err != nil {
				panic(err)
			}
			other := tb.Clone()
			if err := other.AndNotLabel(ta); err != nil {
				panic(err)
			}
			// sym and other are disjoint and each sorted: merge them
			// rather than re-sorting the concatenation.
			ma, mb := sym.Members(), other.Members()
			moved := make([]int, 0, len(ma)+len(mb))
			for len(ma) > 0 && len(mb) > 0 {
				if ma[0] < mb[0] {
					moved = append(moved, ma[0])
					ma = ma[1:]
				} else {
					moved = append(moved, mb[0])
					mb = mb[1:]
				}
			}
			moved = append(append(moved, ma...), mb...)
			out = append(out, DiffEntry{
				Path:  append([]string(nil), path...),
				InA:   ta.Count(),
				InB:   tb.Count(),
				Moved: moved,
			})
		}
		// Union of child names via a two-pointer walk over the sorted
		// Children slices — no name set, no sort.
		var ac, bc []*Node
		if na != nil {
			ac = na.Children
		}
		if nb != nil {
			bc = nb.Children
		}
		ia, ib := 0, 0
		for ia < len(ac) || ib < len(bc) {
			var ca, cb *Node
			switch {
			case ib >= len(bc) || (ia < len(ac) && ac[ia].Frame.Function < bc[ib].Frame.Function):
				ca = ac[ia]
				ia++
			case ia >= len(ac) || bc[ib].Frame.Function < ac[ia].Frame.Function:
				cb = bc[ib]
				ib++
			default:
				ca, cb = ac[ia], bc[ib]
				ia++
				ib++
			}
			name := ""
			if ca != nil {
				name = ca.Frame.Function
			} else {
				name = cb.Frame.Function
			}
			rec(ca, cb, append(path, name))
		}
	}
	rec(a.Root, b.Root, nil)
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].Path, "/") < strings.Join(out[j].Path, "/")
	})
	return out, nil
}

// Stable reports the tasks whose call paths are identical in both trees —
// in STAT's usage, tasks that made no progress between two gathers (hung
// suspects when the application should be advancing).
func Stable(a, b *Tree) (*bitvec.Vector, error) {
	if a.NumTasks != b.NumTasks {
		return nil, fmt.Errorf("trace: Stable task spaces %d vs %d", a.NumTasks, b.NumTasks)
	}
	out := bitvec.New(a.NumTasks)
	for task := 0; task < a.NumTasks; task++ {
		pa := a.PathTo(task)
		pb := b.PathTo(task)
		if pa == nil || pb == nil {
			continue
		}
		if len(pa) == len(pb) && strings.Join(pa, "\x00") == strings.Join(pb, "\x00") {
			out.Set(task)
		}
	}
	return out, nil
}
