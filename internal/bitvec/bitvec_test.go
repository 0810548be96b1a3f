package bitvec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, v.Len())
		}
		if v.Count() != 0 || !v.Empty() {
			t.Errorf("New(%d) not empty: count=%d", n, v.Count())
		}
	}
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 127, 129} {
		if v.Get(i) {
			t.Errorf("bit %d set before Set", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if v.Count() != 6 {
		t.Errorf("Count = %d, want 6", v.Count())
	}
	v.Clear(64)
	if v.Get(64) || v.Count() != 5 {
		t.Errorf("Clear(64) failed: get=%v count=%d", v.Get(64), v.Count())
	}
	// Idempotence.
	v.Set(0)
	v.Set(0)
	if v.Count() != 5 {
		t.Errorf("double Set changed count to %d", v.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(*Vector){
		func(v *Vector) { v.Set(-1) },
		func(v *Vector) { v.Set(10) },
		func(v *Vector) { v.Get(10) },
		func(v *Vector) { v.Clear(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn(New(10))
		}()
	}
}

func TestUnionWith(t *testing.T) {
	a := FromMembers(100, 1, 50, 99)
	b := FromMembers(100, 2, 50)
	if err := a.UnionWith(b); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 50, 99}
	if got := a.Members(); !reflect.DeepEqual(got, want) {
		t.Errorf("union members = %v, want %v", got, want)
	}
	// Width mismatch is an error, not a panic.
	if err := a.UnionWith(New(99)); err == nil {
		t.Error("union of mismatched widths succeeded")
	}
}

// TestUnionWords: the word-list OR touches exactly the listed words, is a
// no-op on an empty list, covers the partial last word of a width that is
// not a multiple of 64, and panics on a word past the end or a width
// mismatch instead of writing outside the vector.
func TestUnionWords(t *testing.T) {
	src := FromMembers(150, 3, 64, 100, 130, 149)
	dst := FromMembers(150, 5)
	dst.UnionWords(src, nil)
	if got := dst.Members(); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("empty word list changed the vector: %v", got)
	}
	// Word 2 is the partial word [128, 150); word 1 is skipped.
	dst.UnionWords(src, []uint32{0, 2})
	if got, want := dst.Members(), []int{3, 5, 130, 149}; !reflect.DeepEqual(got, want) {
		t.Errorf("words {0, 2}: members = %v, want %v", got, want)
	}
	dst.UnionWords(src, []uint32{1})
	full := FromMembers(150, 5)
	if err := full.UnionWith(src); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(full) {
		t.Errorf("every word listed: got %v, want the full union %v", dst.Members(), full.Members())
	}
	for name, fn := range map[string]func(){
		"word past the end": func() { dst.UnionWords(src, []uint32{3}) },
		"width mismatch":    func() { dst.UnionWords(New(149), []uint32{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestIntersectAndNot(t *testing.T) {
	a := FromMembers(64, 1, 2, 3, 4)
	b := FromMembers(64, 3, 4, 5)
	ic := a.Clone()
	if err := ic.IntersectWith(b); err != nil {
		t.Fatal(err)
	}
	if got := ic.Members(); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("intersect = %v", got)
	}
	dc := a.Clone()
	if err := dc.AndNot(b); err != nil {
		t.Fatal(err)
	}
	if got := dc.Members(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("andnot = %v", got)
	}
}

func TestConcat(t *testing.T) {
	a := FromMembers(3, 0, 2)
	b := FromMembers(5, 1, 4)
	c := Concat(a, b)
	if c.Len() != 8 {
		t.Fatalf("concat width = %d, want 8", c.Len())
	}
	want := []int{0, 2, 4, 7} // b's members shifted by 3
	if got := c.Members(); !reflect.DeepEqual(got, want) {
		t.Errorf("concat members = %v, want %v", got, want)
	}
	// Inputs unmodified.
	if !reflect.DeepEqual(a.Members(), []int{0, 2}) || !reflect.DeepEqual(b.Members(), []int{1, 4}) {
		t.Error("Concat modified its inputs")
	}
}

func TestConcatUnalignedWidths(t *testing.T) {
	// Exercise the bit-shifted blit path with widths far from multiples
	// of 64.
	a := FromMembers(67, 0, 63, 64, 66)
	b := FromMembers(130, 0, 64, 129)
	c := Concat(a, b)
	if c.Len() != 197 {
		t.Fatalf("width = %d", c.Len())
	}
	want := []int{0, 63, 64, 66, 67, 67 + 64, 67 + 129}
	if got := c.Members(); !reflect.DeepEqual(got, want) {
		t.Errorf("members = %v, want %v", got, want)
	}
}

func TestConcatEmptyAndZeroWidth(t *testing.T) {
	c := Concat(New(0), FromMembers(4, 1), New(0), FromMembers(2, 0))
	if c.Len() != 6 {
		t.Fatalf("width = %d", c.Len())
	}
	if got := c.Members(); !reflect.DeepEqual(got, []int{1, 4}) {
		t.Errorf("members = %v", got)
	}
}

func TestRemap(t *testing.T) {
	v := FromMembers(4, 0, 1) // daemon-order: d0 holds ranks {0,2}; both sampled
	got, err := v.Remap([]int{0, 2, 1, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2}; !reflect.DeepEqual(got.Members(), want) {
		t.Errorf("remap members = %v, want %v", got.Members(), want)
	}
}

func TestRemapErrors(t *testing.T) {
	v := FromMembers(3, 0)
	if _, err := v.Remap([]int{0, 1}, 3); err == nil {
		t.Error("short perm accepted")
	}
	if _, err := v.Remap([]int{0, 1, 3}, 3); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := v.Remap([]int{0, 0, 1}, 3); err == nil {
		t.Error("duplicate target accepted")
	}
}

func TestRemapWiderTarget(t *testing.T) {
	// Remapping into a wider space (subtree → full job) is legal.
	v := FromMembers(2, 0, 1)
	got, err := v.Remap([]int{5, 9}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{5, 9}; !reflect.DeepEqual(got.Members(), want) {
		t.Errorf("members = %v, want %v", got.Members(), want)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 64, 65, 1000} {
		v := New(n)
		for i := 0; i < n; i += 7 {
			v.Set(i)
		}
		b, err := v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != v.SerializedSize() {
			t.Errorf("n=%d: len=%d, SerializedSize=%d", n, len(b), v.SerializedSize())
		}
		got, used, err := UnmarshalBinary(b)
		if err != nil {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
		if used != len(b) {
			t.Errorf("n=%d: used %d of %d bytes", n, used, len(b))
		}
		if !got.Equal(v) {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	v := FromMembers(70, 0, 69)
	b, _ := v.MarshalBinary()
	cases := map[string][]byte{
		"empty":        {},
		"short header": b[:4],
		"short body":   b[:len(b)-1],
	}
	for name, data := range cases {
		if _, _, err := UnmarshalBinary(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Stray bits beyond the declared width.
	bad := append([]byte(nil), b...)
	bad[len(bad)-1] |= 0x80 // bit 127 of a 70-bit vector
	if _, _, err := UnmarshalBinary(bad); err == nil {
		t.Error("stray high bits accepted")
	}
	// Inconsistent word count.
	bad2 := append([]byte(nil), b...)
	bad2[4] = 99
	if _, _, err := UnmarshalBinary(bad2); err == nil {
		t.Error("inconsistent word count accepted")
	}
}

func TestString(t *testing.T) {
	// The Figure 1 label format.
	v := FromMembers(1024, 0)
	for i := 3; i < 1024; i++ {
		v.Set(i)
	}
	if got, want := v.String(), "1022:[0,3-1023]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := New(8).String(), "0:[]"; got != want {
		t.Errorf("empty String = %q, want %q", got, want)
	}
}

func TestFormatParseRanges(t *testing.T) {
	cases := []struct {
		members []int
		want    string
	}{
		{nil, ""},
		{[]int{5}, "5"},
		{[]int{1, 2, 3}, "1-3"},
		{[]int{0, 2, 3, 4, 9}, "0,2-4,9"},
		{[]int{7, 8, 10, 11}, "7-8,10-11"},
	}
	for _, c := range cases {
		if got := FormatRanges(c.members); got != c.want {
			t.Errorf("FormatRanges(%v) = %q, want %q", c.members, got, c.want)
		}
		back, err := ParseRanges(c.want)
		if err != nil {
			t.Errorf("ParseRanges(%q): %v", c.want, err)
		}
		if len(back) == 0 && len(c.members) == 0 {
			continue
		}
		if !reflect.DeepEqual(back, c.members) {
			t.Errorf("ParseRanges(%q) = %v, want %v", c.want, back, c.members)
		}
	}
	for _, bad := range []string{"x", "3-1", "1-", "-2"} {
		if _, err := ParseRanges(bad); err == nil {
			t.Errorf("ParseRanges(%q) accepted", bad)
		}
	}
}

// randomVector builds an arbitrary vector for property tests.
func randomVector(r *rand.Rand, maxWidth int) *Vector {
	n := r.Intn(maxWidth)
	v := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			v.Set(i)
		}
	}
	return v
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomVector(r, 600)
		b, err := v.MarshalBinary()
		if err != nil {
			return false
		}
		got, used, err := UnmarshalBinary(b)
		return err == nil && used == len(b) && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickConcatPreservesCount(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVector(r, 300), randomVector(r, 300)
		c := Concat(a, b)
		return c.Len() == a.Len()+b.Len() && c.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickConcatThenRemapEqualsUnion(t *testing.T) {
	// The paper's invariant: the optimized pipeline (subtree-local vectors,
	// concatenation, final remap) produces exactly the set the original
	// full-width union produces, for any daemon→rank partition.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(200)
		daemons := 1 + r.Intn(8)
		// Round-robin rank assignment, like machine.TaskMap.
		local := make([][]int, daemons)
		for rank := 0; rank < n; rank++ {
			d := rank % daemons
			local[d] = append(local[d], rank)
		}
		member := make([]bool, n)
		full := New(n)
		parts := make([]*Vector, daemons)
		var perm []int
		for d := 0; d < daemons; d++ {
			parts[d] = New(len(local[d]))
			for i, rank := range local[d] {
				perm = append(perm, rank)
				if r.Intn(2) == 0 {
					member[rank] = true
					full.Set(rank)
					parts[d].Set(i)
				}
			}
		}
		concat := Concat(parts...)
		remapped, err := concat.Remap(perm, n)
		if err != nil {
			return false
		}
		return remapped.Equal(full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				a.Set(i)
			}
			if r.Intn(2) == 0 {
				b.Set(i)
			}
		}
		ab := a.Clone()
		_ = ab.UnionWith(b)
		ba := b.Clone()
		_ = ba.UnionWith(a)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFormatParseRangesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomVector(r, 400)
		members := v.Members()
		back, err := ParseRanges(FormatRanges(members))
		if err != nil {
			return false
		}
		if len(members) == 0 {
			return len(back) == 0
		}
		return reflect.DeepEqual(back, members)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSerializedSizeGrowsWithWidthNotMembers(t *testing.T) {
	// The paper's core observation: the original representation's cost is
	// the job width, not the member count.
	sparse := FromMembers(1 << 20) // one megabit, zero members
	dense := New(64)
	for i := 0; i < 64; i++ {
		dense.Set(i)
	}
	if sparse.SerializedSize() <= dense.SerializedSize() {
		t.Errorf("1Mb-wide empty vector (%dB) not larger than 64-bit full vector (%dB)",
			sparse.SerializedSize(), dense.SerializedSize())
	}
	// A megabit label is 128KB on the wire — the scalar the paper quotes
	// for million-core jobs.
	if got := sparse.SerializedSize(); got < 128*1024 {
		t.Errorf("megabit label = %dB, want >= 128KiB", got)
	}
}

func ExampleVector_String() {
	v := FromMembers(1024, 0)
	for i := 3; i < 1024; i++ {
		v.Set(i)
	}
	fmt.Println(v)
	// Output: 1022:[0,3-1023]
}
