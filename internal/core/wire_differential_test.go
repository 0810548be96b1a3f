package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"stat/internal/bitvec"
	"stat/internal/machine"
	"stat/internal/tbon"
	"stat/internal/topology"
	"stat/internal/trace"
)

// This file pins the whole optimized merge path — word-level merge kernels,
// codec encode/decode, pooled-codec filter — against an independent
// reference pipeline written from the documented wire format and the
// obvious per-bit merge semantics, across every reduction engine, both
// representations and the adversarial topology shapes.

// --- independent reference pipeline ---------------------------------------

// refPad appends zero bytes up to the next multiple of 8 of the tree
// encoding (offsets are measured from the magic).
func refPad(buf []byte) []byte {
	for len(buf)%8 != 0 {
		buf = append(buf, 0)
	}
	return buf
}

// refMarshalTree encodes a tree in the documented v2 ("STR2") wire format
// alone, reading labels bit by bit through Members.
func refMarshalTree(tr *trace.Tree) []byte {
	buf := []byte{'S', 'T', 'R', '2'}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(tr.NumTasks))
	var rec func(n *trace.Node)
	rec = func(n *trace.Node) {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.Frame.Function)))
		buf = append(buf, n.Frame.Function...)
		buf = refPad(buf)
		width := n.Tasks.Len()
		nw := (width + 63) / 64
		buf = binary.LittleEndian.AppendUint32(buf, uint32(width))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nw))
		words := make([]uint64, nw)
		for _, m := range n.Tasks.Members() {
			words[m/64] |= 1 << (uint(m) % 64)
		}
		for _, w := range words {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.Children)))
		buf = binary.LittleEndian.AppendUint32(buf, 0)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(tr.Root)
	return buf
}

// refUnmarshalTree decodes the same format, again independently.
func refUnmarshalTree(t *testing.T, b []byte) *trace.Tree {
	t.Helper()
	if string(b[0:4]) != "STR2" {
		t.Fatal("ref decode: bad magic")
	}
	numTasks := int(binary.LittleEndian.Uint32(b[4:8]))
	pos := 8
	var rec func() *trace.Node
	rec = func() *trace.Node {
		nameLen := int(binary.LittleEndian.Uint16(b[pos:]))
		pos += 2
		name := string(b[pos : pos+nameLen])
		pos += nameLen
		pos += -pos & 7
		width := int(binary.LittleEndian.Uint32(b[pos:]))
		nw := int(binary.LittleEndian.Uint32(b[pos+4:]))
		pos += 8
		v := bitvec.New(width)
		for wi := 0; wi < nw; wi++ {
			w := binary.LittleEndian.Uint64(b[pos:])
			pos += 8
			for bit := 0; bit < 64; bit++ {
				if w&(1<<uint(bit)) != 0 {
					v.Set(wi*64 + bit)
				}
			}
		}
		nc := int(binary.LittleEndian.Uint32(b[pos:]))
		pos += 8
		n := &trace.Node{Frame: trace.Frame{Function: name}, Tasks: v}
		for i := 0; i < nc; i++ {
			n.Children = append(n.Children, rec())
		}
		return n
	}
	root := rec()
	if pos != len(b) {
		t.Fatalf("ref decode: %d trailing bytes", len(b)-pos)
	}
	return &trace.Tree{NumTasks: numTasks, Root: root}
}

func refChild(n *trace.Node, name string) *trace.Node {
	for _, c := range n.Children {
		if c.Frame.Function == name {
			return c
		}
	}
	return nil
}

func refInsertChild(n *trace.Node, c *trace.Node) {
	i := sort.Search(len(n.Children), func(i int) bool {
		return n.Children[i].Frame.Function >= c.Frame.Function
	})
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
}

// refMergeUnion is the per-bit union merge of the original representation.
func refMergeUnion(t *testing.T, dst, src *trace.Tree) {
	t.Helper()
	var rec func(d, s *trace.Node)
	rec = func(d, s *trace.Node) {
		for _, m := range s.Tasks.Members() {
			d.Tasks.(*bitvec.Vector).Set(m)
		}
		for _, sc := range s.Children {
			dc := refChild(d, sc.Frame.Function)
			if dc == nil {
				dc = &trace.Node{Frame: sc.Frame, Tasks: bitvec.New(dst.NumTasks)}
				refInsertChild(d, dc)
			}
			rec(dc, sc)
		}
	}
	if dst.NumTasks != src.NumTasks {
		t.Fatal("ref union: width mismatch")
	}
	rec(dst.Root, src.Root)
}

// refMergeConcat is the map-and-sort per-bit concatenation merge.
func refMergeConcat(trees ...*trace.Tree) *trace.Tree {
	total := 0
	offsets := make([]int, len(trees))
	for i, tr := range trees {
		offsets[i] = total
		total += tr.NumTasks
	}
	var rec func(parts []*trace.Node) *trace.Node
	rec = func(parts []*trace.Node) *trace.Node {
		label := bitvec.New(total)
		var frame trace.Frame
		for i, p := range parts {
			if p == nil {
				continue
			}
			frame = p.Frame
			for _, m := range p.Tasks.Members() {
				label.Set(offsets[i] + m)
			}
		}
		n := &trace.Node{Frame: frame, Tasks: label}
		seen := map[string]bool{}
		names := []string{}
		for _, p := range parts {
			if p == nil {
				continue
			}
			for _, c := range p.Children {
				if !seen[c.Frame.Function] {
					seen[c.Frame.Function] = true
					names = append(names, c.Frame.Function)
				}
			}
		}
		sort.Strings(names)
		for _, name := range names {
			sub := make([]*trace.Node, len(parts))
			for i, p := range parts {
				if p != nil {
					sub[i] = refChild(p, name)
				}
			}
			n.Children = append(n.Children, rec(sub))
		}
		return n
	}
	roots := make([]*trace.Node, len(trees))
	for i, tr := range trees {
		roots[i] = tr.Root
	}
	return &trace.Tree{NumTasks: total, Root: rec(roots)}
}

// refEncodeTrees frames a tree list the way encodeTrees does.
func refEncodeTrees(trees ...*trace.Tree) []byte {
	out := []byte{byte(len(trees)), 0, 0, 0, 0, 0, 0, 0}
	for _, tr := range trees {
		b := refMarshalTree(tr)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = binary.LittleEndian.AppendUint32(out, 0)
		out = append(out, b...)
	}
	return out
}

// refDecodeTrees parses an encodeTrees body with the reference decoder.
func refDecodeTrees(t *testing.T, b []byte) []*trace.Tree {
	t.Helper()
	count := int(b[0])
	b = b[8:]
	out := make([]*trace.Tree, 0, count)
	for i := 0; i < count; i++ {
		n := int(binary.LittleEndian.Uint32(b))
		b = b[8:]
		out = append(out, refUnmarshalTree(t, b[:n]))
		b = b[n:]
	}
	if len(b) != 0 {
		t.Fatalf("ref decode trees: %d trailing bytes", len(b))
	}
	return out
}

// refMergeBodies is the reference filter: decode every child body, merge
// tree-by-tree under the given representation, re-encode.
func refMergeBodies(t *testing.T, children [][]byte, original bool) []byte {
	t.Helper()
	lists := make([][]*trace.Tree, len(children))
	for i, c := range children {
		lists[i] = refDecodeTrees(t, c)
	}
	merged := make([]*trace.Tree, len(lists[0]))
	for ti := range merged {
		if original {
			acc := lists[0][ti]
			for ci := 1; ci < len(lists); ci++ {
				refMergeUnion(t, acc, lists[ci][ti])
			}
			merged[ti] = acc
		} else {
			parts := make([]*trace.Tree, len(lists))
			for ci := range lists {
				parts[ci] = lists[ci][ti]
			}
			merged[ti] = refMergeConcat(parts...)
		}
	}
	return refEncodeTrees(merged...)
}

// refFold reduces leaf bodies over the topology with the reference filter,
// post-order, applying the filter at every interior node exactly like the
// overlay does.
func refFold(t *testing.T, topo *topology.Tree, leaves [][]byte, original bool) []byte {
	t.Helper()
	var eval func(n *topology.Node) []byte
	eval = func(n *topology.Node) []byte {
		if n.IsLeaf() {
			return leaves[n.LeafIndex]
		}
		bodies := make([][]byte, len(n.Children))
		for i, c := range n.Children {
			bodies[i] = eval(c)
		}
		return refMergeBodies(t, bodies, original)
	}
	return eval(topo.Root)
}

// --- the differential ------------------------------------------------------

func TestWireDifferentialAcrossTopologies(t *testing.T) {
	topos := []struct {
		name  string
		build func() (*topology.Tree, error)
	}{
		{"flat", func() (*topology.Tree, error) { return topology.Flat(9) }},
		{"chain", func() (*topology.Tree, error) { return topology.Chain(5) }},
		{"ragged", func() (*topology.Tree, error) { return topology.Ragged(42, 3, 5) }},
		{"balanced", func() (*topology.Tree, error) { return topology.Balanced(2, 16) }},
		{"bgl", func() (*topology.Tree, error) { return topology.BGL2Deep(32) }},
	}
	engines := []struct {
		name string
		opts tbon.ReduceOptions
	}{
		{"seq", seqEngine.reduceOpts()},
		{"concurrent", concurrentEngine.reduceOpts()},
		{"pipelined", pipelinedEngine.reduceOpts()},
		{"pipelined-1B", tbon.ReduceOptions{BudgetBytes: 1}},
	}
	funcs := []string{"main", "solve", "mpi_wait", "mpi_send", "compute", "barrier"}

	for _, mode := range []BitVecMode{Original, Hierarchical} {
		// A tool instance only supplies the configured representation to
		// mergeFilter; the overlay under test is built per topology below.
		tool, err := New(Options{
			Machine:  machine.Atlas(),
			Tasks:    96,
			Topology: topology.Spec{Kind: topology.KindBalanced, Depth: 2},
			BitVec:   mode,
			Samples:  3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range topos {
			topo, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(tc.name)) * 977))
			nLeaves := topo.NumLeaves()

			// Leaf task-space widths: ragged in hierarchical mode (one
			// leaf deliberately empty when there are enough), full job
			// width with disjoint rank slices in original mode.
			widths := make([]int, nLeaves)
			total := 0
			for i := range widths {
				widths[i] = 1 + rng.Intn(7)
				if i == 2 && nLeaves > 3 {
					widths[i] = 0
				}
				total += widths[i]
			}

			leafBodies := make([][]byte, nLeaves)
			off := 0
			for i := range leafBodies {
				var t2, t3 *trace.Tree
				if mode == Original {
					t2, t3 = trace.NewTree(total), trace.NewTree(total)
				} else {
					t2, t3 = trace.NewTree(widths[i]), trace.NewTree(widths[i])
				}
				for local := 0; local < widths[i]; local++ {
					task := local
					if mode == Original {
						task = off + local
					}
					for s := 0; s < 1+rng.Intn(3); s++ {
						depth := 1 + rng.Intn(4)
						fs := make([]string, depth)
						for d := range fs {
							fs[d] = funcs[rng.Intn(len(funcs))]
						}
						t2.AddStack(task, fs...)
						t3.AddStack(task, fs...)
						t3.AddStack(task, append(fs, "leaffn")...)
					}
				}
				off += widths[i]
				body, err := encodeTrees(trace.WireV2, t2, t3)
				if err != nil {
					t.Fatal(err)
				}
				// The leaf encoding itself must match the reference
				// encoder byte for byte.
				if ref := refEncodeTrees(t2, t3); !bytes.Equal(body, ref) {
					t.Fatalf("%v/%s: leaf %d encoding differs from reference", mode, tc.name, i)
				}
				leafBodies[i] = body
			}

			want := refFold(t, topo, leafBodies, mode == Original)
			wantTrees := refDecodeTrees(t, want)

			filter := tool.merge.mergeFilter()
			net := tbon.New(topo)
			leaf := func(i int) ([]byte, error) { return leafBodies[i], nil }
			for _, eng := range engines {
				got, _, err := net.ReduceWith(eng.opts, leaf, filter)
				if err != nil {
					t.Fatalf("%v/%s/%s: %v", mode, tc.name, eng.name, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%v/%s/%s: wire bytes differ from reference fold",
						mode, tc.name, eng.name)
					continue
				}
				gotTrees, err := decodeTrees(nil, got, trace.DecodeOpts{})
				if err != nil {
					t.Fatalf("%v/%s/%s: decode: %v", mode, tc.name, eng.name, err)
				}
				for ti := range gotTrees {
					if !gotTrees[ti].Equal(wantTrees[ti]) {
						t.Errorf("%v/%s/%s: tree %d not Equal to reference",
							mode, tc.name, eng.name, ti)
					}
					if err := gotTrees[ti].Validate(); err != nil {
						t.Errorf("%v/%s/%s: tree %d invalid: %v",
							mode, tc.name, eng.name, ti, err)
					}
				}
			}
		}
	}
}
