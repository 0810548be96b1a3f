package bitvec_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"stat/internal/bitvec"
)

// label3Seed hand-assembles one label3 encoding from header fields and a
// raw payload — including deliberately broken ones the decoder must
// reject (the committed corpus carries overlapping runs, unsorted
// arrays, and nonzero padding built exactly this way).
func label3Seed(width int, kind byte, count int, payload []byte) []byte {
	b := make([]byte, 16+len(payload))
	binary.LittleEndian.PutUint32(b[0:], uint32(width))
	b[4] = kind
	binary.LittleEndian.PutUint32(b[8:], uint32(count))
	copy(b[16:], payload)
	return b
}

func u32s(vs ...uint32) []byte {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	return b
}

// FuzzLabel3Decode feeds arbitrary bytes to both v3 label decoders: they
// must never panic, must agree byte-for-byte on what they accept, and
// anything accepted must re-encode — from the copying decode's dense
// vector and from the aliasing decode's container alike — to the
// identical canonical bytes.
func FuzzLabel3Decode(f *testing.F) {
	f.Add([]byte{})
	f.Add(label3Seed(128, 0, 2, make([]byte, 16)))                      // dense, empty population (non-canonical: run is smaller)
	f.Add(label3Seed(1024, 1, 1, u32s(0, 1024)))                        // run: the full population
	f.Add(label3Seed(1024, 1, 2, u32s(0, 8, 4, 8)))                     // overlapping runs
	f.Add(label3Seed(1024, 1, 2, u32s(0, 8, 8, 8)))                     // adjacent runs (not maximal)
	f.Add(label3Seed(1024, 1, 1, u32s(1020, 8)))                        // run past the width
	f.Add(label3Seed(1024, 2, 3, u32s(7, 3, 900, 0)))                   // unsorted array
	f.Add(label3Seed(1024, 2, 2, u32s(5, 5)))                           // duplicate members
	f.Add(label3Seed(1024, 2, 3, u32s(1, 50, 900, 7)))                  // nonzero tail padding
	f.Add(label3Seed(1024, 3, 1, u32s(0, 0)))                           // unknown kind
	f.Add(append(label3Seed(1024, 2, 3, u32s(1, 50, 900, 0)), 1, 2, 3)) // valid + trailing bytes
	dirty := label3Seed(1024, 2, 3, u32s(1, 50, 900, 0))
	dirty[5] = 0xAA // nonzero header padding
	f.Add(dirty)
	dirtyZero := label3Seed(1024, 1, 1, u32s(0, 1024))
	dirtyZero[12] = 1 // nonzero trailing header zero
	f.Add(dirtyZero)
	// Canonical one-of-each seeds from the real encoder.
	v := bitvec.New(200)
	for i := 0; i < 200; i += 2 {
		v.Set(i)
	}
	for _, members := range [][]int{{}, {0}, {1, 50, 131}} {
		s := bitvec.SetFromMembers(200, members...)
		b := make([]byte, bitvec.Label3Size(s))
		bitvec.PutLabel3(b, s)
		f.Add(b)
	}
	db := make([]byte, bitvec.Label3Size(v))
	bitvec.PutLabel3(db, v)
	f.Add(db)

	f.Fuzz(func(t *testing.T, b []byte) {
		var ac, aa bitvec.Arena
		vec, used, err := ac.UnmarshalLabel3(b)
		al, usedA, _, errA := aa.AliasLabel3(b)
		if (err == nil) != (errA == nil) {
			t.Fatalf("copying decode err=%v, aliasing decode err=%v", err, errA)
		}
		if err != nil {
			return
		}
		if used != usedA {
			t.Fatalf("copying decode consumed %d bytes, aliasing %d", used, usedA)
		}
		if !bitvec.Equal(vec, al) {
			t.Fatalf("copying and aliasing decodes disagree on the population")
		}
		for _, l := range []bitvec.Label{vec, al} {
			enc := make([]byte, bitvec.Label3Size(l))
			if n := bitvec.PutLabel3(enc, l); n != used || !bytes.Equal(enc[:n], b[:used]) {
				t.Fatalf("re-encode not canonical:\nin  %x\nout %x", b[:used], enc[:n])
			}
		}
	})
}

// FuzzRemapLabel3 remaps an arbitrary population through core's rank
// permutation shape — D daemons dealt ranks round-robin, the per-daemon
// lists concatenated, so perm[d·B+k] = d + k·D on an even map — and the
// fused decode of its canonical v3 encoding must equal Apply. pop spells
// the population as (gap, run length) byte pairs; extra%D > 0 makes the
// map uneven, which has no block period.
func FuzzRemapLabel3(f *testing.F) {
	f.Add(uint8(7), uint8(16), uint8(0), []byte{0, 200})
	f.Add(uint8(7), uint8(16), uint8(3), []byte{5, 40, 3, 90})
	f.Add(uint8(1), uint8(100), uint8(0), []byte{10, 30})
	f.Add(uint8(64), uint8(2), uint8(0), []byte{1, 1, 1, 1, 1, 1})
	f.Add(uint8(33), uint8(9), uint8(0), []byte{0, 255, 0, 255})
	f.Fuzz(func(t *testing.T, daemons, perDaemon, extra uint8, pop []byte) {
		d := 1 + int(daemons)%64
		tasks := d*(1+int(perDaemon)%64) + int(extra)%d
		perm := make([]int, 0, tasks)
		for dm := 0; dm < d; dm++ {
			for r := dm; r < tasks; r += d {
				perm = append(perm, r)
			}
		}
		r, err := bitvec.NewRemapper(perm, tasks)
		if err != nil {
			t.Fatal(err)
		}
		v := bitvec.New(tasks)
		for i, at := 0, 0; i+1 < len(pop) && at < tasks; i += 2 {
			at += int(pop[i])
			for n := int(pop[i+1]); n > 0 && at < tasks; n-- {
				v.Set(at)
				at++
			}
		}
		want, err := r.Apply(v)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, bitvec.Label3Size(v))
		bitvec.PutLabel3(b, v)
		var a bitvec.Arena
		got, used, err := a.RemapLabel3(b, r)
		if err != nil || used != len(b) {
			t.Fatalf("RemapLabel3: used %d of %d, err %v", used, len(b), err)
		}
		if !got.Equal(want) {
			t.Fatalf("%d tasks on %d daemons: remap-fused decode differs from Apply", tasks, d)
		}
	})
}
