package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"stat/internal/bitvec"
)

// --- reference implementations -------------------------------------------
//
// These are the straightforward pre-optimization implementations, kept
// verbatim so the word-level merge and the codec are pinned to byte- and
// structure-identical behavior.

// refMarshalTree is the original append-per-field tree encoder. It writes
// the v1 ("STR1") layout, which the package no longer encodes but still
// decodes, so it is also how the tests mint v1 captures.
func refMarshalTree(t *Tree) ([]byte, error) {
	var buf []byte
	buf = append(buf, magicV1[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.NumTasks))
	var rec func(n *Node) error
	rec = func(n *Node) error {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.Frame.Function)))
		buf = append(buf, n.Frame.Function...)
		b, err := n.Tasks.Clone().MarshalBinary()
		if err != nil {
			return err
		}
		buf = append(buf, b...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.Children)))
		for _, c := range n.Children {
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.Root); err != nil {
		return nil, err
	}
	return buf, nil
}

// marshalAny encodes t under any wire version this package decodes,
// the v1 capture format included.
func marshalAny(t *Tree, version uint8) ([]byte, error) {
	if version == WireV1 {
		return refMarshalTree(t)
	}
	return t.MarshalBinaryV(version)
}

// refMergeConcat is the original map-and-sort concatenation merge.
func refMergeConcat(trees ...*Tree) *Tree {
	total := 0
	offsets := make([]int, len(trees))
	for i, tr := range trees {
		offsets[i] = total
		total += tr.NumTasks
	}
	var rec func(parts []*Node) *Node
	rec = func(parts []*Node) *Node {
		label := bitvec.New(total)
		var frame Frame
		for i, p := range parts {
			if p == nil {
				continue
			}
			frame = p.Frame
			for _, m := range p.Tasks.Members() {
				label.Set(offsets[i] + m)
			}
		}
		n := &Node{Frame: frame, Tasks: label}
		names := make([]string, 0)
		seen := map[string]bool{}
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
			sub := make([]*Node, len(parts))
			for i, p := range parts {
				if p != nil {
					sub[i] = p.child(name)
				}
			}
			n.Children = append(n.Children, rec(sub))
		}
		return n
	}
	roots := make([]*Node, len(trees))
	for i, tr := range trees {
		roots[i] = tr.Root
	}
	return &Tree{NumTasks: total, Root: rec(roots)}
}

// randomTree builds a deterministic arbitrary tree from a shared function
// namespace (names repeat across trees, as they do across sibling
// subtrees in a reduction).
func multiStackTree(rng *rand.Rand, tasks int) *Tree {
	t := NewTree(tasks)
	funcs := []string{"main", "solve", "mpi_wait", "mpi_send", "compute", "io_read", "barrier", "loop"}
	for task := 0; task < tasks; task++ {
		stacks := 1 + rng.Intn(3)
		for s := 0; s < stacks; s++ {
			depth := 1 + rng.Intn(6)
			fs := make([]string, depth)
			for d := range fs {
				fs[d] = funcs[rng.Intn(len(funcs))]
			}
			t.AddStack(task, fs...)
		}
	}
	return t
}

func TestMergeConcatDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		k := 1 + rng.Intn(5)
		parts := make([]*Tree, k)
		for i := range parts {
			// Ragged widths, including empty trees and width-0 task spaces.
			parts[i] = multiStackTree(rng, rng.Intn(40))
		}
		got := mergeConcat(parts...)
		want := refMergeConcat(parts...)
		if !got.Equal(want) {
			t.Fatalf("trial %d: MergeConcat differs from reference\ngot:\n%swant:\n%s",
				trial, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: merged tree invalid: %v", trial, err)
		}
		// Byte-identical on the wire too.
		gb, err := got.MarshalBinaryV(WireV2)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := want.MarshalBinaryV(WireV2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("trial %d: wire bytes differ from reference", trial)
		}
	}
}

func TestMergeConcatNoTrees(t *testing.T) {
	m := mergeConcat()
	if m.NumTasks != 0 || len(m.Root.Children) != 0 {
		t.Fatalf("mergeConcat() = %d tasks, %d children", m.NumTasks, len(m.Root.Children))
	}
}

// TestMarshalMatchesReference: a tree's v1 capture, written by the
// reference encoder and decoded, re-encodes at v2 and v3 to exactly the
// bytes the tree itself encodes to.
func TestMarshalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		tr := multiStackTree(rng, 1+rng.Intn(100))
		capture, err := refMarshalTree(tr)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalBinary(capture)
		if err != nil {
			t.Fatal(err)
		}
		for _, version := range []uint8{WireV2, WireV3} {
			got, err := back.MarshalBinaryV(version)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tr.MarshalBinaryV(version)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d: v1 capture re-encodes differently at v%d", trial, version)
			}
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c := NewCodec()
	for trial := 0; trial < 10; trial++ {
		tr := multiStackTree(rng, 1+rng.Intn(60))
		wire, err := tr.MarshalBinaryV(WireV2)
		if err != nil {
			t.Fatal(err)
		}
		// The append-into-buffer encode must be byte-identical to
		// MarshalBinary.
		enc, err := tr.AppendBinaryV(nil, WireV2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, wire) {
			t.Fatalf("trial %d: AppendBinary differs from MarshalBinary", trial)
		}
		// Codec decode must equal the package-level decode.
		got, err := Decode(wire, DecodeOpts{Codec: c})
		if err != nil {
			t.Fatal(err)
		}
		heap, err := UnmarshalBinary(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(heap) || !got.Equal(tr) {
			t.Fatalf("trial %d: codec decode mismatch", trial)
		}
		if c.Live() != 1 {
			t.Fatalf("trial %d: Live = %d, want 1", trial, c.Live())
		}
		// Releasing the only live tree recycles the arena for the next
		// trial; correctness across trials is exactly the recycle test.
		got.Release()
		if c.Live() != 0 {
			t.Fatalf("trial %d: Live = %d after release, want 0", trial, c.Live())
		}
	}
}

func TestCodecOverlappingTrees(t *testing.T) {
	// Two trees decoded before either is released: the arena must not
	// recycle until both are gone.
	rng := rand.New(rand.NewSource(53))
	c := NewCodec()
	a := multiStackTree(rng, 30)
	b := multiStackTree(rng, 17)
	wa, _ := a.MarshalBinaryV(WireV2)
	wb, _ := b.MarshalBinaryV(WireV2)
	da, err := Decode(wa, DecodeOpts{Codec: c})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Decode(wb, DecodeOpts{Codec: c})
	if err != nil {
		t.Fatal(err)
	}
	da.Release()
	if c.Live() != 1 {
		t.Fatalf("Live = %d, want 1", c.Live())
	}
	// db must still be intact after its sibling's release.
	if !db.Equal(b) {
		t.Fatal("second tree corrupted by first tree's release")
	}
	db.Release()
	if c.Live() != 0 {
		t.Fatalf("Live = %d, want 0", c.Live())
	}
}

func TestCodecDecodeErrorsMatchPackage(t *testing.T) {
	tr := multiStackTree(rand.New(rand.NewSource(59)), 20)
	wire, _ := tr.MarshalBinaryV(WireV2)
	bad := [][]byte{
		nil,
		wire[:3],
		wire[:len(wire)-1],
		append(append([]byte(nil), wire...), 0),
	}
	// Corrupt the magic.
	corrupt := append([]byte(nil), wire...)
	corrupt[0] = 'X'
	bad = append(bad, corrupt)
	c := NewCodec()
	for i, b := range bad {
		_, pkgErr := UnmarshalBinary(b)
		_, codecErr := Decode(b, DecodeOpts{Codec: c})
		if (pkgErr == nil) != (codecErr == nil) {
			t.Errorf("input %d: package err %v, codec err %v", i, pkgErr, codecErr)
		}
		if c.Live() != 0 {
			t.Fatalf("input %d: failed decode left Live = %d", i, c.Live())
		}
	}
}

func TestCodecSteadyStateDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	// The filter cycle: decode, release, repeat. After warmup the arena
	// and intern table are hot and the only steady-state allocations are
	// the handful the decoder cannot avoid (the tree header and decoder
	// state); the per-label and per-name allocations must be gone.
	tr := multiStackTree(rand.New(rand.NewSource(67)), 64)
	wire, err := tr.MarshalBinaryV(WireV2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCodec()
	for i := 0; i < 3; i++ { // warm arena, intern table and node pool
		d, err := Decode(wire, DecodeOpts{Codec: c})
		if err != nil {
			t.Fatal(err)
		}
		d.Release()
	}
	nodes := tr.NodeCount() + 1
	n := testing.AllocsPerRun(50, func() {
		d, err := Decode(wire, DecodeOpts{Codec: c})
		if err != nil {
			t.Fatal(err)
		}
		d.Release()
	})
	// Well under one allocation per node proves per-node costs are gone;
	// the budget tolerates pool-side noise (GC may strip the node pool
	// mid-run) without letting a per-label or per-name regression through.
	if n > float64(nodes)/2 {
		t.Errorf("steady-state codec decode allocates %v per run for %d nodes", n, nodes)
	}
}

func TestTreeAppendBinaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	tr := multiStackTree(rand.New(rand.NewSource(71)), 64)
	buf := make([]byte, 0, tr.SerializedSizeV(WireV2))
	if n := testing.AllocsPerRun(100, func() {
		if _, err := tr.AppendBinaryV(buf[:0], WireV2); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Tree.AppendBinary into sized buffer allocates %v per run, want <= 2", n)
	}
}

func TestInternTableCap(t *testing.T) {
	tbl := newInternTable()
	var names [][]byte
	for i := 0; i < internLimit+10; i++ {
		names = append(names, []byte{byte(i), byte(i >> 8), byte(i >> 16)})
	}
	for _, b := range names {
		s := tbl.intern(b)
		if s != string(b) {
			t.Fatalf("intern(%v) = %q", b, s)
		}
	}
	if len(tbl.m) > internLimit {
		t.Fatalf("intern table grew to %d entries, cap %d", len(tbl.m), internLimit)
	}
}

// TestDecodeOptsMisuse: option combinations Decode excludes are errors,
// never a guess — a Pin needs a Codec to retain it, and a remapped tree
// owns its storage, so Remap takes no Codec.
func TestDecodeOptsMisuse(t *testing.T) {
	tr := multiStackTree(rand.New(rand.NewSource(73)), 8)
	wire, err := tr.MarshalBinaryV(WireV2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := bitvec.NewRemapper([]int{7, 6, 5, 4, 3, 2, 1, 0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	var pin countingPin
	c := NewCodec()
	for name, o := range map[string]DecodeOpts{
		"pin without codec": {Pin: &pin},
		"remap with codec":  {Codec: c, Remap: r},
		"all three":         {Codec: c, Pin: &pin, Remap: r},
	} {
		if _, err := Decode(wire, o); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if c.Live() != 0 || pin.retains != 0 {
		t.Errorf("refused decodes left state behind: Live %d, retains %d", c.Live(), pin.retains)
	}
}
