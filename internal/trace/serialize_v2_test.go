package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"stat/internal/bitvec"
)

// randomNamedTree builds a tree whose function names cover every length
// class mod 8, so v1 label offsets land on every alignment and v2 must
// neutralize all of them.
func randomNamedTree(rng *rand.Rand, width int) *Tree {
	names := []string{"a", "ab", "abc", "abcd", "abcde", "abcdef", "abcdefg", "abcdefgh", "waitall_progress"}
	tr := NewTree(width)
	for task := 0; task < width; task++ {
		depth := 1 + rng.Intn(5)
		stack := make([]string, depth)
		for d := range stack {
			stack[d] = names[rng.Intn(len(names))]
		}
		tr.AddStack(task, stack...)
	}
	return tr
}

// TestMarshalV2RoundTrip pins the 8-aligned encoding: exact sizing, decode
// equality with the v1 decode of the same tree, and the structural
// alignment invariant — every label's word area at a multiple of 8 from
// the tree start.
func TestMarshalV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		tr := randomNamedTree(rng, 1+rng.Intn(120))
		b2, err := tr.MarshalBinaryV(WireV2)
		if err != nil {
			t.Fatal(err)
		}
		if len(b2) != tr.SerializedSizeV(WireV2) {
			t.Fatalf("trial %d: len %d, SerializedSizeV(2) %d", trial, len(b2), tr.SerializedSizeV(WireV2))
		}
		if len(b2)%8 != 0 {
			t.Fatalf("trial %d: v2 encoding is %d bytes, not a multiple of 8", trial, len(b2))
		}
		if v, err := SniffWireVersion(b2); err != nil || v != WireV2 {
			t.Fatalf("trial %d: sniff = %d, %v", trial, v, err)
		}
		got, err := UnmarshalBinary(b2)
		if err != nil {
			t.Fatalf("trial %d: v2 decode: %v", trial, err)
		}
		if !got.Equal(tr) {
			t.Fatalf("trial %d: v2 round trip changed the tree", trial)
		}
		// Re-encode canonically in both versions.
		re2, err := got.MarshalBinaryV(WireV2)
		if err != nil || !bytes.Equal(re2, b2) {
			t.Fatalf("trial %d: v2 re-encode not canonical (%v)", trial, err)
		}
		b1, err := refMarshalTree(tr)
		if err != nil {
			t.Fatal(err)
		}
		got1, err := UnmarshalBinary(b1)
		if err != nil {
			t.Fatalf("trial %d: v1 decode: %v", trial, err)
		}
		if !got1.Equal(got) {
			t.Fatalf("trial %d: v1 and v2 decodes disagree", trial)
		}
		if len(b2) < len(b1) {
			t.Fatalf("trial %d: v2 (%dB) smaller than v1 (%dB)?", trial, len(b2), len(b1))
		}
		got.Release()
		got1.Release()
		tr.Release()
	}
}

// TestV2LabelWordsAligned walks the raw v2 encoding and asserts every
// label's word bytes start at an offset ≡ 0 (mod 8) from the tree start —
// the structural property the 100% alias rate rests on.
func TestV2LabelWordsAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tr := randomNamedTree(rng, 200)
	defer tr.Release()
	b, err := tr.MarshalBinaryV(WireV2)
	if err != nil {
		t.Fatal(err)
	}
	labels := 0
	pos := 8
	var walk func() // mirrors the decoder's cursor, offsets only
	walk = func() {
		nameLen := int(b[pos]) | int(b[pos+1])<<8
		pos += 2 + nameLen
		pos += pad8(pos)
		// Label header is 8 bytes; the words follow.
		if (pos+8)%8 != 0 {
			t.Fatalf("label words at offset %d, not 8-aligned", pos+8)
		}
		labels++
		nw := int(uint32(b[pos+4]) | uint32(b[pos+5])<<8 | uint32(b[pos+6])<<16 | uint32(b[pos+7])<<24)
		pos += 8 + 8*nw
		nc := int(uint32(b[pos]) | uint32(b[pos+1])<<8 | uint32(b[pos+2])<<16 | uint32(b[pos+3])<<24)
		pos += 8
		for i := 0; i < nc; i++ {
			walk()
		}
	}
	walk()
	if pos != len(b) || labels != tr.NodeCount()+1 {
		t.Fatalf("walk consumed %d of %d bytes over %d labels", pos, len(b), labels)
	}
}

// TestDecodeV2AliasesEveryLabel is the acceptance assertion for STR2:
// an aliasing decode of a v2 tree in an 8-aligned buffer aliases 100% of
// labels — the codec's miss counter stays exactly zero — while the same
// tree as v1 records misses (the fallback is observable, not silent).
func TestDecodeV2AliasesEveryLabel(t *testing.T) {
	if !bitvec.HostLittleEndian() {
		t.Skip("zero-copy decode only aliases on little-endian hosts")
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		tr := randomNamedTree(rng, 1+rng.Intn(150))
		wire, err := tr.MarshalBinaryV(WireV2)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCodec()
		var pin countingPin
		got, err := Decode(wire, DecodeOpts{Codec: c, Pin: &pin})
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := c.AliasStats()
		if want := int64(tr.NodeCount() + 1); hits != want || misses != 0 {
			t.Fatalf("trial %d: v2 alias stats %d/%d, want %d hits, 0 misses", trial, hits, misses, want)
		}
		if !got.Equal(tr) {
			t.Fatalf("trial %d: aliased v2 decode differs", trial)
		}
		got.Release()

		// The same tree in v1: name lengths force unaligned label offsets,
		// and the miss counter must say so.
		wire1, err := refMarshalTree(tr)
		if err != nil {
			t.Fatal(err)
		}
		c1 := NewCodec()
		got1, err := Decode(wire1, DecodeOpts{Codec: c1, Pin: &pin})
		if err != nil {
			t.Fatal(err)
		}
		h1, m1 := c1.AliasStats()
		if h1+m1 != int64(tr.NodeCount()+1) {
			t.Fatalf("trial %d: v1 alias stats %d+%d don't cover all labels", trial, h1, m1)
		}
		got1.Release()
		tr.Release()
	}
}

// TestUnmarshalV2RejectsCorrupt extends the corrupt-input suite to the v2
// layout, in particular the canonical-padding rule.
func TestUnmarshalV2RejectsCorrupt(t *testing.T) {
	tr := NewTree(4)
	tr.AddStack(0, "main", "x")
	defer tr.Release()
	b, err := tr.MarshalBinaryV(WireV2)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the root node's name padding: root name is empty, so bytes
	// 10..15 are padding.
	cases := map[string]func([]byte) []byte{
		"empty":      func([]byte) []byte { return nil },
		"bad magic":  func(b []byte) []byte { c := clone(b); c[3] = '9'; return c },
		"truncated":  func(b []byte) []byte { return b[:len(b)-3] },
		"trailing":   func(b []byte) []byte { return append(clone(b), 0xFF) },
		"dirty pad":  func(b []byte) []byte { c := clone(b); c[10] = 0xAA; return c },
		"wide label": func(b []byte) []byte { c := clone(b); c[4] = 99; return c },
		"v1 in v2":   func(b []byte) []byte { c := clone(b); copy(c, magicV1[:]); return c }, // sizes no longer parse
	}
	for name, corrupt := range cases {
		if _, err := UnmarshalBinary(corrupt(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// remapWith is the two-pass reference remap: every label of a decoded
// tree rebuilt through Remapper.Apply.
func remapWith(t *Tree, r *bitvec.Remapper) error {
	var rec func(n *Node) error
	rec = func(n *Node) error {
		v, err := r.Apply(n.Tasks.Clone())
		if err != nil {
			return err
		}
		n.Tasks = v
		for _, c := range n.Children {
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	t.NumTasks = r.Width()
	return rec(t.Root)
}

// TestUnmarshalRemappedMatchesRemapWith pins the decode-fused remap
// (Decode with DecodeOpts.Remap) to the two-pass reference remapWith, for
// v1 captures and both live wire versions.
func TestUnmarshalRemappedMatchesRemapWith(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 15; trial++ {
		width := 1 + rng.Intn(200)
		tr := randomNamedTree(rng, width)
		perm := rng.Perm(width)
		r, err := bitvec.NewRemapper(perm, width)
		if err != nil {
			t.Fatal(err)
		}
		for _, version := range []uint8{WireV1, WireV2, WireV3} {
			wire, err := marshalAny(tr, version)
			if err != nil {
				t.Fatal(err)
			}
			want, err := UnmarshalBinary(wire)
			if err != nil {
				t.Fatal(err)
			}
			if err := remapWith(want, r); err != nil {
				t.Fatal(err)
			}
			got, err := Decode(wire, DecodeOpts{Remap: r})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d v%d: fused remap differs from decode+RemapWith", trial, version)
			}
			if got.NumTasks != width {
				t.Fatalf("trial %d v%d: fused remap width %d", trial, version, got.NumTasks)
			}
			got.Release()
			want.Release()
		}
		tr.Release()
	}
}

// TestUnmarshalRemappedRejectsWidthMismatch: the permutation must span
// the wire tree's task space exactly.
func TestUnmarshalRemappedRejectsWidthMismatch(t *testing.T) {
	tr := NewTree(8)
	tr.AddStack(0, "main")
	defer tr.Release()
	wire, err := tr.MarshalBinaryV(WireV2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := bitvec.NewRemapper([]int{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(wire, DecodeOpts{Remap: r}); err == nil {
		t.Error("width-mismatched remap accepted")
	}
}
