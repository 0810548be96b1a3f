package trace

import (
	"bytes"
	"math/rand"
	"testing"
)

// countingPin records retain/release traffic the way a tbon.Lease would.
type countingPin struct {
	retains  int
	releases int
}

func (p *countingPin) Retain()  { p.retains++ }
func (p *countingPin) Release() { p.releases++ }

// TestDecodeTreeAliasingMatchesCopying pins the zero-copy decode to the
// copying decode: same tree, byte-identical re-encode, across trees whose
// function names force label words onto every alignment class.
func TestDecodeTreeAliasingMatchesCopying(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"", "a", "ab", "abc", "abcd", "abcde", "abcdef", "abcdefg", "abcdefgh"}
	for trial := 0; trial < 20; trial++ {
		width := 1 + rng.Intn(200)
		src := NewTree(width)
		for task := 0; task < width; task++ {
			depth := 1 + rng.Intn(5)
			stack := make([]string, depth)
			for d := range stack {
				stack[d] = names[rng.Intn(len(names)-1)+1] + names[rng.Intn(len(names))]
			}
			src.AddStack(task, stack...)
		}
		wire, err := src.MarshalBinaryV(WireV2)
		if err != nil {
			t.Fatal(err)
		}

		copying := NewCodec()
		want, err := Decode(wire, DecodeOpts{Codec: copying})
		if err != nil {
			t.Fatal(err)
		}
		aliasing := NewCodec()
		var pin countingPin
		got, err := Decode(wire, DecodeOpts{Codec: aliasing, Pin: &pin})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: aliasing decode differs from copying decode", trial)
		}
		reenc, err := got.MarshalBinaryV(WireV2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reenc, wire) {
			t.Fatalf("trial %d: aliasing tree re-encodes differently", trial)
		}
		if pin.retains > 1 {
			t.Fatalf("trial %d: pin retained %d times, want at most once per tree", trial, pin.retains)
		}
		if pin.releases != 0 {
			t.Fatalf("trial %d: pin released before the tree", trial)
		}
		got.Release()
		if pin.releases != pin.retains {
			t.Fatalf("trial %d: pin retains %d != releases %d after Tree.Release",
				trial, pin.retains, pin.releases)
		}
		want.Release()
		src.Release()
		if copying.Live() != 0 || aliasing.Live() != 0 {
			t.Fatalf("trial %d: live counts %d/%d after release", trial, copying.Live(), aliasing.Live())
		}
	}
}

// TestDecodeTreeAliasingPinOutlivesFilterReturn models the reduction hot
// path: the buffer's pin must be held for exactly as long as the decoded
// tree lives, however many other trees the codec is juggling.
func TestDecodeTreeAliasingPinPerTree(t *testing.T) {
	src := NewTree(64)
	for task := 0; task < 64; task++ {
		src.AddStack(task, "main", "x", "y")
	}
	wire, err := src.MarshalBinaryV(WireV2)
	if err != nil {
		t.Fatal(err)
	}
	src.Release()

	c := NewCodec()
	var pinA, pinB countingPin
	a, err := Decode(wire, DecodeOpts{Codec: c, Pin: &pinA})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(wire, DecodeOpts{Codec: c, Pin: &pinB})
	if err != nil {
		t.Fatal(err)
	}
	if c.Live() != 2 {
		t.Fatalf("Live = %d, want 2", c.Live())
	}
	a.Release()
	if pinA.releases != pinA.retains {
		t.Fatal("pin A not dropped with its tree")
	}
	if pinB.retains > 0 && pinB.releases != 0 {
		t.Fatal("pin B dropped while its tree is live")
	}
	b.Release()
	if pinB.releases != pinB.retains {
		t.Fatal("pin B not dropped with its tree")
	}
	if c.Live() != 0 {
		t.Fatalf("Live = %d after releases", c.Live())
	}
}

// TestCodecMergeConcatMatchesReference pins the arena-backed merge over
// aliasing (read-only) decodes to the reference map-and-sort merge across
// ragged widths.
func TestCodecMergeConcatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	funcs := []string{"main", "f", "gg", "hhh", "solve", "io"}
	for trial := 0; trial < 10; trial++ {
		k := 2 + rng.Intn(4)
		parts := make([]*Tree, k)
		wires := make([][]byte, k)
		for i := range parts {
			w := rng.Intn(9) // zero-width inputs included
			tr := NewTree(w)
			for task := 0; task < w; task++ {
				depth := 1 + rng.Intn(4)
				stack := make([]string, depth)
				for d := range stack {
					stack[d] = funcs[rng.Intn(len(funcs))]
				}
				tr.AddStack(task, stack...)
			}
			var err error
			wires[i], err = tr.MarshalBinaryV(WireV2)
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = tr
		}
		want := refMergeConcat(parts...)

		c := NewCodec()
		var pin countingPin
		decoded := make([]*Tree, k)
		for i := range decoded {
			var err error
			decoded[i], err = Decode(wires[i], DecodeOpts{Codec: c, Pin: &pin})
			if err != nil {
				t.Fatal(err)
			}
		}
		got := c.MergeConcat(decoded...)
		if !got.Equal(want) {
			t.Fatalf("trial %d: codec MergeConcat differs from the reference merge", trial)
		}
		gotWire, err := got.MarshalBinaryV(WireV2)
		if err != nil {
			t.Fatal(err)
		}
		wantWire, err := want.MarshalBinaryV(WireV2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotWire, wantWire) {
			t.Fatalf("trial %d: codec merge encodes differently", trial)
		}
		got.Release()
		for _, d := range decoded {
			d.Release()
		}
		if c.Live() != 0 {
			t.Fatalf("trial %d: Live = %d", trial, c.Live())
		}
		if pin.retains != pin.releases {
			t.Fatalf("trial %d: pin imbalance %d retains / %d releases", trial, pin.retains, pin.releases)
		}
		want.Release()
		for _, p := range parts {
			p.Release()
		}
	}
}
