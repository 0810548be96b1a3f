package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"stat/internal/bitvec"
)

// runStructuredTree builds a tree whose node populations are mostly
// contiguous rank ranges — the run-dominated shape the v3 containers
// exist for — with a few scattered stragglers so array and dense
// containers appear too.
func runStructuredTree(rng *rand.Rand, width int) *Tree {
	tr := NewTree(width)
	for task := 0; task < width; task++ {
		tr.AddStack(task, "main", "solve")
		if task%2 == 0 {
			// Scattered half-population: canonical kind is dense or array
			// depending on width.
			tr.AddStack(task, "main", "io")
		}
	}
	for task := 0; task < width; task += 17 {
		tr.AddStack(task, "main", "solve", "mpi_wait") // sparse array shape
	}
	return tr
}

// TestMarshalV3RoundTrip pins the adaptive-label encoding: exact sizing,
// 8-byte multiple, decode equality with the v1/v2 decodes of the same
// tree, canonical re-encode, and strictly-no-larger size versus v2 on
// every tree (a v3 label is the smallest of its three containers, and
// dense costs v2's size plus 8 header bytes per label at most).
func TestMarshalV3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		var tr *Tree
		if trial%2 == 0 {
			tr = randomNamedTree(rng, 1+rng.Intn(120))
		} else {
			tr = runStructuredTree(rng, 1+rng.Intn(400))
		}
		b3, err := tr.MarshalBinaryV(WireV3)
		if err != nil {
			t.Fatal(err)
		}
		if len(b3) != tr.SerializedSizeV(WireV3) {
			t.Fatalf("trial %d: len %d, SerializedSizeV(3) %d", trial, len(b3), tr.SerializedSizeV(WireV3))
		}
		if len(b3)%8 != 0 {
			t.Fatalf("trial %d: v3 encoding is %d bytes, not a multiple of 8", trial, len(b3))
		}
		if v, err := SniffWireVersion(b3); err != nil || v != WireV3 {
			t.Fatalf("trial %d: sniff = %d, %v", trial, v, err)
		}
		got, err := UnmarshalBinary(b3)
		if err != nil {
			t.Fatalf("trial %d: v3 decode: %v", trial, err)
		}
		if !got.Equal(tr) {
			t.Fatalf("trial %d: v3 round trip changed the tree", trial)
		}
		re3, err := got.MarshalBinaryV(WireV3)
		if err != nil || !bytes.Equal(re3, b3) {
			t.Fatalf("trial %d: v3 re-encode not canonical (%v)", trial, err)
		}
		for _, version := range []uint8{WireV1, WireV2} {
			bv, err := marshalAny(tr, version)
			if err != nil {
				t.Fatal(err)
			}
			gotV, err := UnmarshalBinary(bv)
			if err != nil {
				t.Fatalf("trial %d: v%d decode: %v", trial, version, err)
			}
			if !gotV.Equal(got) {
				t.Fatalf("trial %d: v%d and v3 decodes disagree", trial, version)
			}
			gotV.Release()
		}
		b2, err := tr.MarshalBinaryV(WireV2)
		if err != nil {
			t.Fatal(err)
		}
		if len(b3) > len(b2)+8*(tr.NodeCount()+1) {
			t.Fatalf("trial %d: v3 %dB exceeds v2 %dB by more than the header delta", trial, len(b3), len(b2))
		}
		got.Release()
		tr.Release()
	}
}

// TestMarshalV3SpecBytes hand-encodes a small tree field by field from
// the serialize.go STR3 grammar and requires AppendBinaryV to produce
// exactly those bytes — the wire spec is the contract, not the code.
func TestMarshalV3SpecBytes(t *testing.T) {
	// Width 200 (4 dense words), one container of each kind:
	// "solve" holds every task — 1 run extent (8B) beats dense (32B);
	// "io" holds 3 scattered ranks — array (3 u32 + pad = 16B) beats
	// 3 run extents (24B) and dense (32B);
	// "x" holds the 100 even ranks — dense (32B) beats 100 runs (800B)
	// and a 100-member array (400B).
	const width = 200
	tr := NewTree(width)
	for task := 0; task < width; task++ {
		tr.AddStack(task, "solve")
	}
	for _, task := range []int{1, 50, 131} {
		tr.AddStack(task, "io")
	}
	for task := 0; task < width; task += 2 {
		tr.AddStack(task, "x")
	}
	defer tr.Release()

	var want []byte
	u16 := func(v int) { want = binary.LittleEndian.AppendUint16(want, uint16(v)) }
	u32 := func(v int) { want = binary.LittleEndian.AppendUint32(want, uint32(v)) }
	pad := func() {
		for len(want)%8 != 0 {
			want = append(want, 0)
		}
	}
	label := func(kind, count int, payload func()) {
		u32(width)
		want = append(want, byte(kind), 0, 0, 0)
		u32(count)
		u32(0)
		payload()
	}
	allTasks := func() { u32(0); u32(width) } // one extent [start=0, length=200)

	want = append(want, 'S', 'T', 'R', '3')
	u32(width) // numTasks
	// Root: empty name, run label covering every task, 3 children.
	u16(0)
	pad()
	label(1, 1, allTasks)
	u32(3)
	u32(0)
	// Children in sorted name order: "io", "solve", "x".
	u16(2)
	want = append(want, "io"...)
	pad()
	label(2, 3, func() {
		for _, m := range []int{1, 50, 131} {
			u32(m)
		}
		u32(0) // odd count: one zero u32 of padding
	})
	u32(0)
	u32(0)
	u16(5)
	want = append(want, "solve"...)
	pad()
	label(1, 1, allTasks)
	u32(0)
	u32(0)
	u16(1)
	want = append(want, 'x')
	pad()
	label(0, 4, func() { // dense: ceil(200/64) = 4 words, even bits only
		for w := 0; w < 4; w++ {
			var word uint64
			for i := 0; i < 64; i++ {
				bit := 64*w + i
				if bit < width && bit%2 == 0 {
					word |= 1 << i
				}
			}
			want = binary.LittleEndian.AppendUint64(want, word)
		}
	})
	u32(0)
	u32(0)

	got, err := tr.MarshalBinaryV(WireV3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("v3 encoding differs from the spec bytes:\ngot  %x\nwant %x", got, want)
	}
}

// TestDecodeV3AliasesEveryLabel extends the 100% alias-rate guarantee to
// STR3: the 16-byte label3 header preserves v2's 8-alignment induction,
// so an aliasing decode of a v3 tree in an 8-aligned buffer aliases all
// containers — including the compressed ones, which surface as frozen
// sets viewing the pinned buffer — and the decoded tree re-encodes
// byte-identically in every version (the Set downgrade path).
func TestDecodeV3AliasesEveryLabel(t *testing.T) {
	if !bitvec.HostLittleEndian() {
		t.Skip("zero-copy decode only aliases on little-endian hosts")
	}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		tr := runStructuredTree(rng, 1+rng.Intn(300))
		wire, err := tr.MarshalBinaryV(WireV3)
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
			t.Fatalf("trial %d: v3 alias stats %d/%d, want %d hits, 0 misses", trial, hits, misses, want)
		}
		ls := c.LabelStats()
		if ls.Labels() != int64(tr.NodeCount()+1) {
			t.Fatalf("trial %d: label stats cover %d labels, want %d", trial, ls.Labels(), tr.NodeCount()+1)
		}
		if !got.Equal(tr) {
			t.Fatalf("trial %d: aliased v3 decode differs", trial)
		}
		// A decoded tree holding frozen compressed labels must re-encode
		// identically to the all-dense original in every version.
		for _, version := range []uint8{WireV1, WireV2, WireV3} {
			want, err := marshalAny(tr, version)
			if err != nil {
				t.Fatal(err)
			}
			re, err := marshalAny(got, version)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, want) {
				t.Fatalf("trial %d: v3-aliased tree re-encodes differently under v%d", trial, version)
			}
		}
		got.Release()
		tr.Release()
	}
}

// TestUnmarshalV3RejectsCorrupt extends the corrupt-input suite to the
// v3 layout: tree-level framing damage plus the label3 canonical rules
// (bitvec's own tests cover the container encodings exhaustively; here
// the rejection must surface through the tree decoder).
func TestUnmarshalV3RejectsCorrupt(t *testing.T) {
	tr := NewTree(64)
	for task := 0; task < 64; task++ {
		tr.AddStack(0, "main", "x")
	}
	defer tr.Release()
	b, err := tr.MarshalBinaryV(WireV3)
	if err != nil {
		t.Fatal(err)
	}
	// Root node: empty name at offset 8, pad to 16, label3 header at 16
	// (width u32, kind u8 at 20, zeros 21..23, count u32 at 24, zero u32
	// at 28), payload at 32.
	cases := map[string]func([]byte) []byte{
		"empty":           func([]byte) []byte { return nil },
		"bad magic":       func(b []byte) []byte { c := clone(b); c[3] = '9'; return c },
		"truncated":       func(b []byte) []byte { return b[:len(b)-3] },
		"trailing":        func(b []byte) []byte { return append(clone(b), 0xFF) },
		"dirty pad":       func(b []byte) []byte { c := clone(b); c[10] = 0xAA; return c },
		"bad kind":        func(b []byte) []byte { c := clone(b); c[20] = 3; return c },
		"dirty kind pad":  func(b []byte) []byte { c := clone(b); c[21] = 1; return c },
		"dirty head zero": func(b []byte) []byte { c := clone(b); c[28] = 1; return c },
		// Root spans all 64 tasks = one run [0,64): doubling the count
		// field promises a second extent that overlaps the payload walk.
		"bad count": func(b []byte) []byte { c := clone(b); c[24] = 7; return c },
		// Non-canonical container: the full population must be a run, so
		// rewriting kind to dense (with the right word payload) is a
		// formally well-formed label the decoder must still reject.
		"non-canonical": func(b []byte) []byte {
			c := clone(b)
			c[20] = 0 // kind dense
			c[24] = 1 // count = 1 word
			binary.LittleEndian.PutUint64(c[32:], ^uint64(0))
			return c
		},
	}
	for name, corrupt := range cases {
		if _, err := UnmarshalBinary(corrupt(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestV3MinVersionDowngradeChain is the wire-level mixed-fleet story: a
// tree sampled and encoded at v3 decodes into frozen compressed labels,
// then re-encodes for a v2 peer, whose decode written as a v1 capture
// (the reference encoder) matches the original tree's v1 capture byte
// for byte — no information is created or lost anywhere on the ladder.
func TestV3MinVersionDowngradeChain(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 10; trial++ {
		tr := runStructuredTree(rng, 1+rng.Intn(300))
		b3, err := tr.MarshalBinaryV(WireV3)
		if err != nil {
			t.Fatal(err)
		}
		at3, err := UnmarshalBinary(b3)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := at3.MarshalBinaryV(WireV2)
		if err != nil {
			t.Fatal(err)
		}
		at2, err := UnmarshalBinary(b2)
		if err != nil {
			t.Fatal(err)
		}
		b1, err := refMarshalTree(at2)
		if err != nil {
			t.Fatal(err)
		}
		want1, err := refMarshalTree(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, want1) {
			t.Fatalf("trial %d: v3→v2→v1 chain bytes differ from direct v1 encode", trial)
		}
		at3.Release()
		at2.Release()
		tr.Release()
	}
}
