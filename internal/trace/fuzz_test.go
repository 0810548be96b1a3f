package trace_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"stat/internal/bitvec"
	"stat/internal/trace"
)

// corpusTree builds a small representative tree for fuzz seeds.
func corpusTree() *trace.Tree {
	t := trace.NewTree(6)
	t.AddStack(0, "main", "solver", "mpi_waitall")
	t.AddStack(1, "main", "solver", "compute")
	t.AddStack(5, "main", "io", "write")
	return t
}

// FuzzUnmarshalBinary feeds arbitrary bytes to the version-dispatched
// wire decoder: it must never panic, and anything it accepts — v1, v2
// or v3 magic — must re-marshal, under the version it was encoded in, to
// the identical byte string (each decoder admits only canonical
// encodings of its version).
func FuzzUnmarshalBinary(f *testing.F) {
	valid, err := trace.MarshalAny(corpusTree(), trace.WireV1)
	if err != nil {
		f.Fatal(err)
	}
	validV2, err := corpusTree().MarshalBinaryV(trace.WireV2)
	if err != nil {
		f.Fatal(err)
	}
	validV3, err := corpusTree().MarshalBinaryV(trace.WireV3)
	if err != nil {
		f.Fatal(err)
	}
	wide := trace.NewTree(256) // wide enough that run labels win
	for task := 0; task < 256; task++ {
		wide.AddStack(task, "main", "solver")
	}
	wideV3, err := wide.MarshalBinaryV(trace.WireV3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(validV2)
	f.Add(validV3)
	f.Add(wideV3)
	f.Add(valid[:len(valid)/2])                 // truncated mid-node
	f.Add(validV2[:len(validV2)/2])             // truncated mid-node, v2
	f.Add(validV3[:len(validV3)/2])             // truncated mid-node, v3
	f.Add(append([]byte("XTR1"), valid[4:]...)) // bad magic
	f.Add(append(bytes.Clone(valid), 0xFF))     // trailing garbage
	f.Add(append(bytes.Clone(validV2), 0xFF))   // trailing garbage after v2
	f.Add(append(bytes.Clone(validV3), 0xFF))   // trailing garbage after v3
	corrupted := bytes.Clone(valid)
	corrupted[9] ^= 0x40 // flip a width bit
	f.Add(corrupted)
	crossed := bytes.Clone(validV2)
	copy(crossed, "STR1") // v2 layout under v1 magic
	f.Add(crossed)
	crossed32 := bytes.Clone(validV3)
	copy(crossed32, "STR2") // v3 layout under v2 magic
	f.Add(crossed32)
	dirtyPad := bytes.Clone(validV2)
	dirtyPad[10] = 0x55 // root name padding must be zero
	f.Add(dirtyPad)
	// v3 label damage at the root: the label3 header sits at offset 16
	// (kind byte 20, count u32 24), its payload at 32.
	badKind := bytes.Clone(wideV3)
	badKind[20] = 3
	f.Add(badKind)
	nonCanonical := bytes.Clone(wideV3)
	nonCanonical[20] = 2 // full-population run rewritten as "array"
	f.Add(nonCanonical)
	overlap := bytes.Clone(wideV3)
	overlap[24] = 2 // promise two extents where one run's bytes lie
	f.Add(overlap)
	dirtyKindPad := bytes.Clone(wideV3)
	dirtyKindPad[21] = 0xAA // the three zero bytes after kind
	f.Add(dirtyKindPad)
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := trace.UnmarshalBinary(b)
		checkDecodeModes(t, b, false, tr, err)
		if err != nil {
			return
		}
		version, err := trace.SniffWireVersion(b)
		if err != nil {
			t.Fatalf("accepted input has no sniffable version: %v", err)
		}
		enc, err := trace.MarshalAny(tr, version)
		if err != nil {
			t.Fatalf("decoded tree failed to re-marshal: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("decode/encode not canonical (v%d):\nin  %x\nout %x", version, b, enc)
		}
		if got := tr.SerializedSizeV(version); version >= trace.WireV2 && got != len(enc) {
			t.Fatalf("SerializedSizeV(%d) %d != encoded %d", version, got, len(enc))
		}
	})
}

// FuzzTreeRoundTrip builds a tree from a fuzzer-chosen population and
// checks the wire format reproduces it exactly. ops is consumed three
// bytes at a time: task selector, stack depth, and a path seed walking a
// small function alphabet.
func FuzzTreeRoundTrip(f *testing.F) {
	f.Add(uint8(4), []byte{0, 3, 7, 2, 2, 9})
	f.Add(uint8(1), []byte{0, 1, 0})
	f.Add(uint8(255), []byte{})
	f.Fuzz(func(t *testing.T, width uint8, ops []byte) {
		if width == 0 {
			width = 1
		}
		funcs := []string{"main", "a", "bb", "ccc", "d", ""}
		tr := trace.NewTree(int(width))
		for i := 0; i+2 < len(ops); i += 3 {
			task := int(ops[i]) % int(width)
			depth := int(ops[i+1]) % 8
			pathSeed := int(ops[i+2])
			stack := make([]string, 0, depth)
			for d := 0; d < depth; d++ {
				stack = append(stack, funcs[(pathSeed+d*5)%len(funcs)])
			}
			tr.AddStack(task, stack...)
		}
		enc, err := tr.MarshalBinaryV(trace.WireV2)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := trace.UnmarshalBinary(enc)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !tr.Equal(dec) {
			t.Fatalf("round trip changed the tree:\nin:\n%s\nout:\n%s", tr, dec)
		}
		if err := dec.Validate(); err != nil {
			t.Fatalf("round-tripped tree invalid: %v", err)
		}
	})
}

// countPin counts retain/release pairs for the aliasing decoder.
type countPin struct{ n int }

func (p *countPin) Retain()  { p.n++ }
func (p *countPin) Release() { p.n-- }

// maxRemapFuzzWidth bounds the identity permutation the fuzzers compile:
// a v3 run label describes a 2^32-task width in a few bytes, and the
// permutation costs a word per task.
const maxRemapFuzzWidth = 1 << 16

// checkDecodeModes asserts that the codec, aliasing (pinned) and
// identity-remap Decode modes agree with the copying decode — want and
// err — on acceptance and on the decoded tree, and that the aliasing
// decode's pin is balanced once its tree is released.
func checkDecodeModes(t *testing.T, b []byte, delta bool, want *trace.Tree, err error) {
	t.Helper()
	codec := trace.NewCodec()
	pin := &countPin{}
	modes := []struct {
		name string
		o    trace.DecodeOpts
	}{
		{"codec", trace.DecodeOpts{Codec: codec, Delta: delta}},
		{"alias", trace.DecodeOpts{Codec: codec, Pin: pin, Delta: delta}},
	}
	if len(b) >= 8 {
		if w := int(binary.LittleEndian.Uint32(b[4:8])); w <= maxRemapFuzzWidth {
			perm := make([]int, w)
			for i := range perm {
				perm[i] = i
			}
			r, rerr := bitvec.NewRemapper(perm, w)
			if rerr != nil {
				t.Fatal(rerr)
			}
			modes = append(modes, struct {
				name string
				o    trace.DecodeOpts
			}{"identity remap", trace.DecodeOpts{Remap: r, Delta: delta}})
		}
	}
	for _, m := range modes {
		got, gerr := trace.Decode(b, m.o)
		if (gerr == nil) != (err == nil) {
			t.Fatalf("%s decode disagrees with the copying decode: %v vs %v", m.name, gerr, err)
		}
		if gerr != nil {
			continue
		}
		if !got.Equal(want) {
			t.Fatalf("%s decode differs from the copying decode", m.name)
		}
		got.Release()
	}
	if pin.n != 0 {
		t.Fatalf("aliasing decode leaked %d pin retains after release", pin.n)
	}
}

// deltaCorpusFrame encodes a representative delta frame: one changed
// subtree plus untouched siblings elided, root carried with an empty XOR.
func deltaCorpusFrame(f *testing.F, version uint8) []byte {
	d := trace.NewTree(6)
	d.AddStack(1, "main", "solver", "mpi_waitall")
	d.AddStack(1, "main", "solver", "compute")
	enc, err := d.AppendBinaryDeltaV(nil, version)
	if err != nil {
		f.Fatal(err)
	}
	return enc
}

// FuzzDeltaDecode feeds arbitrary bytes to the delta-frame decoder: it
// must never panic; the copying, codec, aliasing and identity-remap
// Decode modes must agree on accept/reject and on the decoded tree; and
// anything accepted must
// re-marshal, under the version it was encoded in, to the identical byte
// string — each decoder admits only canonical delta encodings, including
// the delta-specific rule that a non-root node with an empty XOR label
// must carry children (it exists only to route descent).
func FuzzDeltaDecode(f *testing.F) {
	v2 := deltaCorpusFrame(f, trace.WireV2)
	v3 := deltaCorpusFrame(f, trace.WireV3)
	whole, err := corpusTree().MarshalBinaryV(trace.WireV2)
	if err != nil {
		f.Fatal(err)
	}
	// The canonical "nothing changed" frame: a root-only tree, empty XOR.
	empty, err := trace.NewTree(6).AppendBinaryDeltaV(nil, trace.WireV2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(v2)
	f.Add(v3)
	f.Add(empty)
	f.Add(whole)                         // whole-tree magic must be rejected here
	f.Add(v2[:len(v2)/2])                // truncated mid-node
	f.Add(v3[:len(v3)/2])                // truncated mid-node, v3
	f.Add(append(bytes.Clone(v2), 0xFF)) // trailing garbage
	crossed := bytes.Clone(v2)
	copy(crossed, "STD3") // v2 layout under v3 magic
	f.Add(crossed)
	corrupt := bytes.Clone(v2)
	corrupt[9] ^= 0x40 // flip a width bit
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := trace.Decode(b, trace.DecodeOpts{Delta: true})
		checkDecodeModes(t, b, true, d, err)
		if err != nil {
			return
		}
		version, isDelta, err := trace.SniffFrame(b)
		if err != nil || !isDelta {
			t.Fatalf("accepted delta frame does not sniff as one: v%d delta=%v err=%v", version, isDelta, err)
		}
		enc, err := d.AppendBinaryDeltaV(nil, version)
		if err != nil {
			t.Fatalf("decoded delta failed to re-marshal: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("delta decode/encode not canonical (v%d):\nin  %x\nout %x", version, b, enc)
		}
		// Whole-tree decoders must reject the frame kind symmetrically.
		if _, err := trace.UnmarshalBinary(b); err == nil {
			t.Fatal("whole-tree decoder accepted a delta frame")
		}
	})
}
