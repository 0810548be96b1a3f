package bitvec

import (
	"math/rand"
	"testing"
)

// randomSquareRemapper builds a random permutation of [0, n) compiled
// into a Remapper.
func randomSquareRemapper(t *testing.T, rng *rand.Rand, n int) *Remapper {
	t.Helper()
	r, err := NewRemapper(rng.Perm(n), n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRemapBinaryDifferential pins the decode-fused remap (wire bytes →
// remapped arena vector, one pass) to UnmarshalBinary + Apply, on both
// the aligned fast path and the unaligned fallback.
func TestRemapBinaryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var arena Arena
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(300)
		r := randomSquareRemapper(t, rng, n)
		v := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				v.Set(i)
			}
		}
		wire, err := v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Apply(v)
		if err != nil {
			t.Fatal(err)
		}
		// Aligned buffer (fresh allocation) and a deliberately misaligned
		// view of a copy: both must produce the same value.
		shifted := make([]byte, len(wire)+1)
		copy(shifted[1:], wire)
		for _, buf := range [][]byte{wire, shifted[1:]} {
			got, used, err := arena.RemapBinary(buf, r)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if used != len(wire) {
				t.Fatalf("trial %d: consumed %d of %d bytes", trial, used, len(wire))
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: fused wire remap differs from decode+Apply", trial)
			}
		}
		arena.Reset()
	}
}

// TestRemapBinaryRejects: header errors, width mismatch with the
// permutation, and non-canonical stray bits must all fail — on both load
// paths.
func TestRemapBinaryRejects(t *testing.T) {
	var arena Arena
	r, err := NewRemapper([]int{2, 0, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	v := FromMembers(3, 0, 2)
	wire, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := arena.RemapBinary(wire[:6], r); err == nil {
		t.Error("truncated header accepted")
	}
	wide, err := FromMembers(5, 1).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := arena.RemapBinary(wide, r); err == nil {
		t.Error("width-mismatched label accepted")
	}
	stray := append([]byte(nil), wire...)
	stray[8+7] = 0x80 // bit 63: beyond the declared 3-bit width
	if _, _, err := arena.RemapBinary(stray, r); err == nil {
		t.Error("stray bits accepted (aligned path)")
	}
	shifted := make([]byte, len(stray)+1)
	copy(shifted[1:], stray)
	if _, _, err := arena.RemapBinary(shifted[1:], r); err == nil {
		t.Error("stray bits accepted (unaligned path)")
	}
}

// TestRemapBinaryAllocs: the fused kernel on a warm arena is
// allocation-free.
func TestRemapBinaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	const n = 512
	r := randomSquareRemapper(t, rng, n)
	v := New(n)
	for i := 0; i < n; i += 3 {
		v.Set(i)
	}
	wire, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var arena Arena
	if _, _, err := arena.RemapBinary(wire, r); err != nil {
		t.Fatal(err)
	}
	arena.Reset()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := arena.RemapBinary(wire, r); err != nil {
			t.Fatal(err)
		}
		arena.Reset()
	}); allocs != 0 {
		t.Errorf("RemapBinary on a warm arena allocates %v per op, want 0", allocs)
	}
}
