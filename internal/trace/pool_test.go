package trace

import (
	"strings"
	"sync"
	"testing"
)

// TestReleaseRecycle churns trees through the pool and checks recycled
// nodes carry no stale state into new trees.
func TestReleaseRecycle(t *testing.T) {
	build := func(salt string) *Tree {
		tr := NewTree(8)
		tr.AddStack(0, "main", "a"+salt, "b")
		tr.AddStack(3, "main", "a"+salt, "c")
		tr.AddStack(7, "main", "z")
		return tr
	}
	want := build("x").String()
	for i := 0; i < 100; i++ {
		tr := build("x")
		if got := tr.String(); got != want {
			t.Fatalf("iteration %d: tree changed after recycling:\ngot  %q\nwant %q", i, got, want)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		tr.Release()
	}
	// Interleave a differently-shaped tree to dirty the pool.
	for i := 0; i < 50; i++ {
		a := build("x")
		b := build("y")
		b.Release()
		if got := a.String(); got != want {
			t.Fatalf("live tree corrupted by releasing another: %q", got)
		}
		a.Release()
	}
}

// TestReleaseConcurrent hammers the pool from many goroutines; run under
// -race this guards the concurrent filter workers' allocation path.
func TestReleaseConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := NewTree(16)
				tr.AddStack(w, "main", "f", "g")
				tr.AddStack((w+i)%16, "main", "h")
				enc, err := tr.MarshalBinaryV(WireV2)
				if err != nil {
					t.Error(err)
					return
				}
				dec, err := UnmarshalBinary(enc)
				if err != nil {
					t.Error(err)
					return
				}
				if !tr.Equal(dec) {
					t.Error("round trip mismatch under concurrency")
					return
				}
				tr.Release()
				dec.Release()
			}
		}(w)
	}
	wg.Wait()
}

// TestDoubleReleasePanics pins the ownership guard: a second Release on
// the same tree would hand nodes now owned by a live tree back to the
// allocator, so it must fail loudly instead of corrupting the pool.
func TestDoubleReleasePanics(t *testing.T) {
	tr := NewTree(4)
	tr.AddStack(1, "main", "f")
	tr.Release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second Release did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "Release called twice") {
			t.Fatalf("panic %v does not carry the double-release diagnostic", r)
		}
	}()
	tr.Release()
}

// TestCodecDoubleReleasePanics covers the codec-owned path, where the
// stakes are higher: a double release would double-decrement the codec's
// live count and recycle the arena under a live tree.
func TestCodecDoubleReleasePanics(t *testing.T) {
	src := NewTree(4)
	src.AddStack(2, "main", "g")
	enc, err := src.MarshalBinaryV(WireV2)
	if err != nil {
		t.Fatal(err)
	}
	src.Release()
	c := NewCodec()
	tr, err := Decode(enc, DecodeOpts{Codec: c})
	if err != nil {
		t.Fatal(err)
	}
	tr.Release()
	if c.Live() != 0 {
		t.Fatalf("Live = %d after release", c.Live())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Release of a codec tree did not panic")
		}
		if c.Live() != 0 {
			t.Fatalf("double release corrupted Live: %d", c.Live())
		}
	}()
	tr.Release()
}
