package bitvec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// randomPopulation draws a population with run structure: mixes of long
// runs, singletons, and empty stretches, the shapes equivalence classes
// actually produce.
func randomPopulation(rng *rand.Rand, width int) []int {
	var members []int
	i := 0
	for i < width {
		switch rng.Intn(4) {
		case 0: // run
			n := 1 + rng.Intn(200)
			for j := 0; j < n && i < width; j++ {
				members = append(members, i)
				i++
			}
			i += 1 + rng.Intn(5)
		case 1: // singleton
			members = append(members, i)
			i += 2 + rng.Intn(100)
		default: // gap
			i += 1 + rng.Intn(300)
		}
	}
	return members
}

func vecOf(width int, members []int) *Vector {
	v := New(width)
	for _, m := range members {
		v.Set(m)
	}
	return v
}

func TestChooseKindAdaptive(t *testing.T) {
	cases := []struct {
		name    string
		width   int
		members []int
		want    uint8
	}{
		{"empty", 4096, nil, kindRun},
		{"full", 4096, nil, kindRun}, // filled below
		{"singleton", 4096, []int{17}, kindRun},
		{"two-members-apart", 4096, []int{3, 1000}, kindArray},
		{"alternating", 256, nil, kindDense},  // filled below
		{"tiny-width-full", 64, nil, kindRun}, // filled below
	}
	for i := 0; i < 4096; i++ {
		cases[1].members = append(cases[1].members, i)
	}
	for i := 0; i < 256; i += 2 {
		cases[4].members = append(cases[4].members, i)
	}
	for i := 0; i < 64; i++ {
		cases[5].members = append(cases[5].members, i)
	}
	for _, c := range cases {
		v := vecOf(c.width, c.members)
		card, runs := v.ContainerCounts()
		if card != len(c.members) {
			t.Errorf("%s: card = %d, want %d", c.name, card, len(c.members))
		}
		if got := chooseKind(c.width, card, runs); got != c.want {
			t.Errorf("%s: chooseKind = %d, want %d (card %d runs %d)", c.name, got, c.want, card, runs)
		}
	}
	// Two members far apart: array (8B) beats runs (16B) and dense.
	// Adjacent pair {3,4}: one run (8B) ties array (8B) → run wins.
	if got := chooseKind(4096, 2, 1); got != kindRun {
		t.Errorf("adjacent pair: chooseKind = %d, want run", got)
	}
}

func TestContainerCountsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		width := 1 + rng.Intn(2000)
		members := randomPopulation(rng, width)
		v := vecOf(width, members)
		card, runs := v.ContainerCounts()
		wantRuns := 0
		for i, m := range members {
			if i == 0 || m != members[i-1]+1 {
				wantRuns++
			}
		}
		if card != len(members) || runs != wantRuns {
			t.Fatalf("width %d: ContainerCounts = (%d,%d), want (%d,%d)",
				width, card, runs, len(members), wantRuns)
		}
	}
}

func TestSetMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		width := 64 + rng.Intn(4000)
		members := randomPopulation(rng, width)
		v := vecOf(width, members)
		s := SetFromMembers(width, members...)

		if s.Len() != width || s.Count() != len(members) {
			t.Fatalf("Len/Count mismatch: %d/%d", s.Len(), s.Count())
		}
		if s.Empty() != (len(members) == 0) {
			t.Fatal("Empty mismatch")
		}
		for i := 0; i < width; i += 1 + rng.Intn(7) {
			if s.Get(i) != v.Get(i) {
				t.Fatalf("Get(%d) mismatch", i)
			}
		}
		if !Equal(s, v) || !Equal(v, s) || !Equal(s, s.Clone()) {
			t.Fatal("Equal across representations failed")
		}
		if !s.Clone().Equal(v) {
			t.Fatal("Clone mismatch")
		}
		if s.String() != v.String() {
			t.Fatalf("String mismatch:\n set %s\n vec %s", s.String(), v.String())
		}
		gm, wm := s.Members(), v.Members()
		if len(gm) != len(wm) {
			t.Fatal("Members length mismatch")
		}
		for i := range gm {
			if gm[i] != wm[i] {
				t.Fatal("Members mismatch")
			}
		}
		// Dense wire encode must be byte-identical.
		if s.SerializedSize() != v.SerializedSize() {
			t.Fatal("SerializedSize mismatch")
		}
		sb := make([]byte, s.SerializedSize())
		vb := make([]byte, v.SerializedSize())
		s.PutBinary(sb)
		v.PutBinary(vb)
		if !bytes.Equal(sb, vb) {
			t.Fatal("PutBinary mismatch")
		}
		// BlitInto at an offset matches Blit.
		off := rng.Intn(70)
		d1, d2 := New(width+128), New(width+128)
		s.BlitInto(d1, off)
		d2.Blit(v, off)
		if !d1.Equal(d2) {
			t.Fatalf("BlitInto(off=%d) mismatch", off)
		}
		// AppendExtents round-trips through NewRunSet.
		ext := v.AppendExtents(nil, 0)
		if !Equal(NewRunSet(width, ext), v) {
			t.Fatal("AppendExtents/NewRunSet mismatch")
		}
		_, runs := v.ContainerCounts()
		if len(ext) != runs {
			t.Fatalf("AppendExtents produced %d extents, ContainerCounts says %d", len(ext), runs)
		}
	}
}

func TestCompressVector(t *testing.T) {
	v := vecOf(1024, []int{0, 1, 2, 3, 4, 5, 6, 7, 500, 501, 502})
	s := CompressVector(v, nil)
	if s == nil {
		t.Fatal("run-dominated population should compress")
	}
	if !Equal(s, v) {
		t.Fatal("compressed set differs from source")
	}
	// Reuse path: same storage, new population.
	v2 := vecOf(2048, []int{100, 101, 102})
	s2 := CompressVector(v2, s)
	if s2 != s || !Equal(s2, v2) {
		t.Fatal("reuse path failed")
	}
	// Alternating bits: dense wins, nil back.
	alt := New(256)
	for i := 0; i < 256; i += 2 {
		alt.Set(i)
	}
	if CompressVector(alt, nil) != nil {
		t.Fatal("alternating population should stay dense")
	}
}

// refLabel3 encodes a label's v3 container from the documented format
// alone, independently of PutLabel3.
func refLabel3(width int, members []int) []byte {
	runs := 0
	for i, m := range members {
		if i == 0 || m != members[i-1]+1 {
			runs++
		}
	}
	card := len(members)
	runB, arrB, denseB := 8*runs, 4*card+4*(card&1), 8*((width+63)/64)
	kind := kindDense
	if runB <= arrB && runB <= denseB {
		kind = kindRun
	} else if arrB <= denseB {
		kind = kindArray
	}
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(width))
	b = append(b, kind, 0, 0, 0)
	switch kind {
	case kindRun:
		b = binary.LittleEndian.AppendUint32(b, uint32(runs))
		b = binary.LittleEndian.AppendUint32(b, 0)
		for i := 0; i < len(members); {
			j := i + 1
			for j < len(members) && members[j] == members[j-1]+1 {
				j++
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(members[i]))
			b = binary.LittleEndian.AppendUint32(b, uint32(j-i))
			i = j
		}
	case kindArray:
		b = binary.LittleEndian.AppendUint32(b, uint32(card))
		b = binary.LittleEndian.AppendUint32(b, 0)
		for _, m := range members {
			b = binary.LittleEndian.AppendUint32(b, uint32(m))
		}
		if card&1 == 1 {
			b = binary.LittleEndian.AppendUint32(b, 0)
		}
	default:
		nw := (width + 63) / 64
		b = binary.LittleEndian.AppendUint32(b, uint32(nw))
		b = binary.LittleEndian.AppendUint32(b, 0)
		words := make([]uint64, nw)
		for _, m := range members {
			words[m/64] |= 1 << (uint(m) % 64)
		}
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}

func TestLabel3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		width := 1 + rng.Intn(3000)
		members := randomPopulation(rng, width)
		v := vecOf(width, members)
		want := refLabel3(width, members)

		for _, l := range []Label{v, SetFromMembers(width, members...)} {
			if got := Label3Size(l); got != len(want) {
				t.Fatalf("Label3Size = %d, want %d", got, len(want))
			}
			buf := make([]byte, Label3Size(l))
			if n := PutLabel3(buf, l); n != len(want) {
				t.Fatalf("PutLabel3 wrote %d, want %d", n, len(want))
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("PutLabel3 bytes differ from reference (width %d, %d members)", width, len(members))
			}
			// Copying decode → dense, equal to source.
			var a Arena
			dv, used, err := a.UnmarshalLabel3(buf)
			if err != nil || used != len(want) {
				t.Fatalf("UnmarshalLabel3: used %d err %v", used, err)
			}
			if !dv.Equal(v) {
				t.Fatal("UnmarshalLabel3 value mismatch")
			}
			// Aliasing decode: representation may differ, value may not.
			al, used2, _, err := a.AliasLabel3(buf)
			if err != nil || used2 != len(want) {
				t.Fatalf("AliasLabel3: used %d err %v", used2, err)
			}
			if !Equal(al, v) {
				t.Fatal("AliasLabel3 value mismatch")
			}
			// Re-encoding the aliased decode reproduces the bytes.
			re := make([]byte, Label3Size(al))
			PutLabel3(re, al)
			if !bytes.Equal(re, want) {
				t.Fatal("aliased decode does not re-encode canonically")
			}
		}
	}
}

func TestLabel3RemapDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		width := 1 + rng.Intn(2000)
		members := randomPopulation(rng, width)
		v := vecOf(width, members)
		// Mix of permutation shapes: identity, reversal, shuffle, and a
		// round-robin interleave like machine.TaskMap produces.
		perm := make([]int, width)
		switch trial % 4 {
		case 0:
			for i := range perm {
				perm[i] = i
			}
		case 1:
			for i := range perm {
				perm[i] = width - 1 - i
			}
		case 2:
			for i, p := range rng.Perm(width) {
				perm[i] = p
			}
		case 3:
			d := 1 + rng.Intn(7)
			k := 0
			for start := 0; start < d; start++ {
				for j := start; j < width; j += d {
					perm[j] = k
					k++
				}
			}
		}
		r, err := NewRemapper(perm, width)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Apply(v)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, Label3Size(v))
		PutLabel3(buf, v)
		var a Arena
		got, used, err := a.RemapLabel3(buf, r)
		if err != nil || used != len(buf) {
			t.Fatalf("RemapLabel3: used %d err %v", used, err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d (perm shape %d): remap-fused decode differs from Apply", trial, trial%4)
		}
	}

	// Core's shape: the task map's per-daemon rank lists concatenated,
	// perm[d·B+k] = d + k·D when each of D daemons serves B ranks dealt
	// round-robin — block-periodic when the map is even.
	for _, tc := range []struct {
		name           string
		tasks, daemons int
		dead           []int // daemons left out of a survivor-only map
		period         int
	}{
		{"even", 37 * 64, 37, nil, 64},
		{"uneven", 37*64 + 5, 37, nil, 0},
		{"identity", 1500, 1, nil, 1},
		{"one task per daemon", 300, 300, nil, 1},
		{"survivor-only", 37 * 64, 37, []int{5, 20}, 0},
	} {
		dead := make(map[int]bool)
		for _, d := range tc.dead {
			dead[d] = true
		}
		var perm []int
		for d := 0; d < tc.daemons; d++ {
			if dead[d] {
				continue
			}
			for r := d; r < tc.tasks; r += tc.daemons {
				perm = append(perm, r)
			}
		}
		r, err := NewRemapper(perm, tc.tasks)
		if err != nil {
			t.Fatal(err)
		}
		if r.period != tc.period {
			t.Errorf("%s: block period %d, want %d", tc.name, r.period, tc.period)
		}
		n := len(perm)
		extents := [][2]int{
			{0, n},           // the whole job
			{0, 1},           // one member
			{70, 100},        // inside one block
			{60, 70},         // across one block boundary, no whole block
			{30, 1000},       // partial head and tail blocks
			{64, 640},        // block-aligned
			{n - 130, n},     // partial head, whole tail
			{1, n - 1},       // everything but the ends
			{n / 2, n/2 + 1}, // one member mid-job
		}
		check := func(what string, members []int, wantRun bool) {
			t.Helper()
			v := vecOf(n, members)
			want, err := r.Apply(v)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, Label3Size(v))
			PutLabel3(buf, v)
			if wantRun && buf[4] != kindRun {
				t.Fatalf("%s: %s encoded as kind %d, not a run container", tc.name, what, buf[4])
			}
			var a Arena
			got, used, err := a.RemapLabel3(buf, r)
			if err != nil || used != len(buf) {
				t.Fatalf("%s: %s: RemapLabel3: used %d err %v", tc.name, what, used, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: %s: remap-fused decode differs from Apply", tc.name, what)
			}
		}
		for _, ext := range extents {
			lo, hi := min(ext[0], n), min(ext[1], n)
			var members []int
			for i := lo; i < hi; i++ {
				members = append(members, i)
			}
			check(fmt.Sprintf("extent [%d,%d)", lo, hi), members, true)
		}
		rng := rand.New(rand.NewSource(int64(len(tc.name))))
		for i := 0; i < 4; i++ {
			check(fmt.Sprintf("random population %d", i), randomPopulation(rng, n), false)
		}
	}
}

func TestLabel3RejectsNonCanonical(t *testing.T) {
	mk := func(kind uint8, count uint32, payload ...uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, 1024) // width
		b = append(b, kind, 0, 0, 0)
		b = binary.LittleEndian.AppendUint32(b, count)
		b = binary.LittleEndian.AppendUint32(b, 0)
		for _, u := range payload {
			b = binary.LittleEndian.AppendUint32(b, u)
		}
		return b
	}
	cases := map[string][]byte{
		"overlapping runs":      mk(kindRun, 2, 0, 10, 5, 10),
		"unsorted runs":         mk(kindRun, 2, 50, 2, 10, 2),
		"adjacent runs":         mk(kindRun, 2, 0, 10, 10, 5),
		"empty run":             mk(kindRun, 2, 0, 10, 20, 0),
		"run beyond width":      mk(kindRun, 1, 1000, 100),
		"unsorted array":        mk(kindArray, 3, 7, 3, 900, 0),
		"duplicate array":       mk(kindArray, 3, 3, 3, 900, 0),
		"array beyond width":    mk(kindArray, 3, 1, 5, 2000, 0),
		"nonzero array padding": mk(kindArray, 3, 1, 5, 900, 7),
		"nonzero header pad":    append(mk(kindRun, 0)[:5], 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"bad kind":              mk(3, 0),
		"truncated":             mk(kindRun, 4, 0, 10),
		// A dense container whose population chooseKind would compress:
		// a single full run must travel as a run container.
		"non-canonical dense": func() []byte {
			b := binary.LittleEndian.AppendUint32(nil, 128)
			b = append(b, kindDense, 0, 0, 0)
			b = binary.LittleEndian.AppendUint32(b, 2)
			b = binary.LittleEndian.AppendUint32(b, 0)
			b = binary.LittleEndian.AppendUint64(b, ^uint64(0))
			b = binary.LittleEndian.AppendUint64(b, ^uint64(0))
			return b
		}(),
		// A run container for a shuffle that array would encode smaller.
		"non-canonical run": mk(kindRun, 3, 1, 1, 500, 1, 900, 1),
		"stray dense bits": func() []byte {
			b := binary.LittleEndian.AppendUint32(nil, 60)
			b = append(b, kindDense, 0, 0, 0)
			b = binary.LittleEndian.AppendUint32(b, 1)
			b = binary.LittleEndian.AppendUint32(b, 0)
			b = binary.LittleEndian.AppendUint64(b, 0xAAAAAAAAAAAAAAAA)
			return b
		}(),
	}
	perm := make([]int, 1024)
	for i := range perm {
		perm[i] = i
	}
	r60, _ := NewRemapper(perm[:60], 60)
	r1024, _ := NewRemapper(perm, 1024)
	for name, b := range cases {
		var a Arena
		if _, _, err := a.UnmarshalLabel3(b); err == nil {
			t.Errorf("UnmarshalLabel3 accepted %s", name)
		}
		if _, _, _, err := a.AliasLabel3(b); err == nil {
			t.Errorf("AliasLabel3 accepted %s", name)
		}
		r := r1024
		if binary.LittleEndian.Uint32(b) == 60 {
			r = r60
		}
		if _, _, err := a.RemapLabel3(b, r); err == nil {
			t.Errorf("RemapLabel3 accepted %s", name)
		}
	}
}

func TestLabel3AliasingViews(t *testing.T) {
	if !HostLittleEndian() {
		t.Skip("aliasing decode requires a little-endian host")
	}
	check := func(members []int, wantKind uint8) {
		v := vecOf(4096, members)
		// 8-aligned buffer: encode at offset 0 of a fresh allocation.
		buf := make([]byte, Label3Size(v))
		PutLabel3(buf, v)
		if buf[4] != wantKind {
			t.Fatalf("encoded kind %d, want %d", buf[4], wantKind)
		}
		var a Arena
		l, _, aliased, err := a.AliasLabel3(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !aliased {
			t.Errorf("kind %d label did not alias an aligned buffer", wantKind)
		}
		if !Equal(l, v) {
			t.Error("aliased value mismatch")
		}
		if s, ok := l.(*Set); ok && wantKind == kindRun {
			if ext := s.Extents(); len(ext) > 0 {
				// The extents must view the buffer: mutating the buffer
				// shows through (safe here; the set is dropped after).
				old := ext[0].Start
				buf[label3HeaderSize]++
				if ext[0].Start == old {
					t.Error("run container did not alias the wire buffer")
				}
				buf[label3HeaderSize]--
			}
		}
	}
	run := []int{}
	for i := 100; i < 3000; i++ {
		run = append(run, i)
	}
	check(run, kindRun)
	check([]int{5, 300, 700, 1111}, kindArray)
	alt := []int{}
	for i := 0; i < 4096; i += 2 {
		alt = append(alt, i)
	}
	check(alt, kindDense)
}

func TestScatterRangeStretchDetection(t *testing.T) {
	// A permutation with a slope-1 block and a scattered tail: the block
	// must word-fill, the tail must still land correctly.
	width := 256
	perm := make([]int, width)
	for i := 0; i < 128; i++ {
		perm[i] = 64 + i // slope-1 stretch
	}
	rest := rand.New(rand.NewSource(3)).Perm(64)
	for i := 0; i < 64; i++ {
		perm[128+i] = rest[i]
	}
	for i := 192; i < 256; i++ {
		perm[i] = i
	}
	r, err := NewRemapper(perm, width)
	if err != nil {
		t.Fatal(err)
	}
	v := New(width)
	for i := 30; i < 220; i++ {
		v.Set(i)
	}
	want, _ := r.Apply(v)
	dst := New(width)
	r.scatterRange(dst.words, 30, 190)
	if !dst.Equal(want) {
		t.Fatal("scatterRange disagrees with Apply")
	}
}

func TestLabel3SublinearAtMillionTasks(t *testing.T) {
	// The acceptance bound: at 1M tasks a run-dominated population —
	// the equivalence-class shape — must encode at least 10x smaller
	// than dense. Here: every task except one hung rank, in 2 runs.
	const width = 1 << 20
	v := New(width)
	for i := 0; i < width; i++ {
		v.Set(i)
	}
	v.Clear(131071)
	dense := v.SerializedSize()
	if got := Label3Size(v); got*10 > dense {
		t.Errorf("v3 size %d, dense %d: want ≥10x smaller", got, dense)
	}
	if got := Label3Size(v); got != label3HeaderSize+16 {
		t.Errorf("2-run label encodes to %d bytes, want %d", got, label3HeaderSize+16)
	}
}
