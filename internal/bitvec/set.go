package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// This file implements the adaptive compressed rank-set representation
// behind the v3 wire format. A Label is either the dense *Vector or a
// compressed *Set; which container a label travels as on the wire is
// chosen per label by size (chooseKind), so near-full and near-empty
// populations — the common case for equivalence classes — cost bytes
// proportional to their structure, not to the job width.
//
// # Frozen-container sharing contract
//
// A Set is frozen at construction: no mutating methods exist, and every
// consumer — trie emission, tree nodes, the merge kernels, the wire
// encoder — shares the same immutable value by reference, exactly the
// "publish an immutable representation, swap the pointer" discipline
// stackwalk.Cache borrowed from the LL/SC atomic-copy work. Code that
// needs a mutable task set materializes a private dense copy with Clone.
// The backing extents/elems slices may alias a decoded wire buffer or a
// sampler-owned scratch slice; their lifetime is the owner's concern
// (trace pins leases, the sampler reuses storage between batches), never
// the Set's.

// Extent is one maximal run of consecutive members: ranks
// [Start, Start+Count). Canonical extent lists are sorted, non-empty,
// and strictly separated (a gap of at least one clear bit between runs,
// otherwise the runs would be one extent).
type Extent struct {
	Start uint32
	Count uint32
}

// Label is the task-set representation attached to tree edges: dense
// (*Vector) or compressed (*Set). The interface carries only frozen-value
// operations — mutators stay on the concrete dense type, because every
// mutation site in the pipeline owns a dense label by construction. The
// interface is sealed: the two implementations exhaust it, and the v3
// encoder type-switches over them.
type Label interface {
	// Len reports the width in bits.
	Len() int
	// Count reports the number of members.
	Count() int
	// Empty reports whether the set has no members.
	Empty() bool
	// Get reports whether task i is a member.
	Get(i int) bool
	// Members returns the members in increasing order.
	Members() []int
	// Clone materializes a private dense copy.
	Clone() *Vector
	// String renders the members as ranges, like Vector.String.
	String() string
	// SerializedSize reports the dense (v1/v2) wire size; compressed
	// labels expand to dense words when a stream downgrades below v3.
	SerializedSize() int
	// PutBinary writes the dense (v1/v2) wire encoding.
	PutBinary(b []byte) int
	// ContainerCounts reports the cardinality and the number of maximal
	// runs — the two quantities the v3 container choice needs.
	ContainerCounts() (card, runs int)
	// BlitInto ORs the members, shifted by off, into dst: member m
	// becomes dst member off+m. The shifted members must fit in dst.
	BlitInto(dst *Vector, off int)
	// AppendExtents appends the maximal runs, shifted by off, to dst,
	// coalescing with dst's last extent when the shifted first run
	// touches it. Returns the extended slice.
	AppendExtents(dst []Extent, off int) []Extent

	sealed()
}

var (
	_ Label = (*Vector)(nil)
	_ Label = (*Set)(nil)
)

// Set is a frozen compressed rank set: run-backed (sorted disjoint
// extents) or array-backed (sorted member list), per the decoded or
// constructed container. Width and counts are fixed at construction; see
// the sharing contract in the file comment.
type Set struct {
	width int
	card  int
	runs  int
	// Exactly one of extents/elems is non-nil, except for the empty set
	// (both nil). extents holds the maximal runs when run-backed; elems
	// holds the members when array-backed.
	extents []Extent
	elems   []uint32
}

// NewRunSet adopts extents (not copied) as a run-backed set of the given
// width. The extents must be canonical: sorted, non-empty, in range, and
// strictly separated. Callers constructing from untrusted data must
// validate first — decoders do.
func NewRunSet(width int, extents []Extent) *Set {
	card := 0
	for _, e := range extents {
		card += int(e.Count)
	}
	if len(extents) == 0 {
		extents = nil
	}
	return &Set{width: width, card: card, runs: len(extents), extents: extents}
}

// SetFromMembers builds a run-backed set from a sorted unique member
// list — a convenience for tests and small call sites.
func SetFromMembers(width int, members ...int) *Set {
	var ext []Extent
	for _, m := range members {
		if n := len(ext); n > 0 && int(ext[n-1].Start+ext[n-1].Count) == m {
			ext[n-1].Count++
			continue
		}
		ext = append(ext, Extent{Start: uint32(m), Count: 1})
	}
	return NewRunSet(width, ext)
}

func (s *Set) sealed()    {}
func (v *Vector) sealed() {}

// Len reports the width in bits.
func (s *Set) Len() int { return s.width }

// Count reports the number of members.
func (s *Set) Count() int { return s.card }

// Empty reports whether the set has no members.
func (s *Set) Empty() bool { return s.card == 0 }

// ContainerCounts reports the cardinality and run count, both O(1): a Set
// freezes them at construction.
func (s *Set) ContainerCounts() (card, runs int) { return s.card, s.runs }

// Extents returns the backing extent slice of a run-backed set (nil for
// array-backed or empty sets). Read-only, per the sharing contract.
func (s *Set) Extents() []Extent { return s.extents }

// Get reports whether task i is a member.
func (s *Set) Get(i int) bool {
	if i < 0 || i >= s.width {
		panic("bitvec: Get out of range")
	}
	u := uint32(i)
	if s.extents != nil {
		k := sort.Search(len(s.extents), func(k int) bool { return s.extents[k].Start+s.extents[k].Count > u })
		return k < len(s.extents) && s.extents[k].Start <= u
	}
	k := sort.Search(len(s.elems), func(k int) bool { return s.elems[k] >= u })
	return k < len(s.elems) && s.elems[k] == u
}

// Members returns the members in increasing order.
func (s *Set) Members() []int {
	if s.card == 0 {
		return nil
	}
	out := make([]int, 0, s.card)
	if s.extents != nil {
		for _, e := range s.extents {
			for i := 0; i < int(e.Count); i++ {
				out = append(out, int(e.Start)+i)
			}
		}
		return out
	}
	for _, m := range s.elems {
		out = append(out, int(m))
	}
	return out
}

// Clone materializes the set as a private dense vector.
func (s *Set) Clone() *Vector {
	v := New(s.width)
	s.BlitInto(v, 0)
	return v
}

// BlitInto ORs the members, shifted by off, into dst.
func (s *Set) BlitInto(dst *Vector, off int) {
	if off < 0 || off+s.width > dst.n {
		panic("bitvec: BlitInto out of range")
	}
	for _, e := range s.extents {
		fillRange(dst.words, off+int(e.Start), int(e.Count))
	}
	for _, m := range s.elems {
		dst.words[(off+int(m))>>6] |= 1 << (uint(off+int(m)) & 63)
	}
}

// AppendExtents appends the maximal runs, shifted by off, to dst,
// coalescing with dst's tail.
func (s *Set) AppendExtents(dst []Extent, off int) []Extent {
	if s.extents != nil {
		for _, e := range s.extents {
			dst = appendExtent(dst, uint32(off)+e.Start, e.Count)
		}
		return dst
	}
	for i := 0; i < len(s.elems); {
		j := i + 1
		for j < len(s.elems) && s.elems[j] == s.elems[j-1]+1 {
			j++
		}
		dst = appendExtent(dst, uint32(off)+s.elems[i], uint32(j-i))
		i = j
	}
	return dst
}

// appendExtent appends the run [start, start+count) to dst, merging into
// the last extent when the new run continues it.
func appendExtent(dst []Extent, start, count uint32) []Extent {
	if n := len(dst); n > 0 && dst[n-1].Start+dst[n-1].Count == start {
		dst[n-1].Count += count
		return dst
	}
	return append(dst, Extent{Start: start, Count: count})
}

// String renders the set the way STAT labels prefix-tree edges —
// "count:[ranges]", byte-identical to the dense rendering of the same
// members.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(s.card))
	sb.WriteString(":[")
	first := true
	emit := func(start, count uint32) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		sb.WriteString(strconv.Itoa(int(start)))
		if count > 1 {
			sb.WriteByte('-')
			sb.WriteString(strconv.Itoa(int(start + count - 1)))
		}
	}
	if s.extents != nil {
		for _, e := range s.extents {
			emit(e.Start, e.Count)
		}
	} else {
		for i := 0; i < len(s.elems); {
			j := i + 1
			for j < len(s.elems) && s.elems[j] == s.elems[j-1]+1 {
				j++
			}
			emit(s.elems[i], uint32(j-i))
			i = j
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

// SerializedSize reports the dense (v1/v2) wire size of the set.
func (s *Set) SerializedSize() int { return 8 + 8*((s.width+63)/64) }

// PutBinary writes the dense (v1/v2) wire encoding of the set — the exact
// bytes Clone().PutBinary would write, without materializing the clone.
// This is the downgrade path: a v3-decoded label re-encodes densely when
// the min-merge lands a filter below v3.
func (s *Set) PutBinary(b []byte) int {
	nw := (s.width + 63) / 64
	binary.LittleEndian.PutUint32(b, uint32(s.width))
	binary.LittleEndian.PutUint32(b[4:], uint32(nw))
	s.putDenseWords(b[8:], nw)
	return 8 + 8*nw
}

// putDenseWords writes the set's dense word image as nw little-endian
// words into b. Little-endian words mean bit i of the label lives at
// byte i/8, bit i%8, independent of host order — so runs fill at byte
// granularity with no word assembly (and no closures: this sits on the
// allocation-free encode path).
func (s *Set) putDenseWords(b []byte, nw int) {
	b = b[:8*nw]
	for i := range b {
		b[i] = 0
	}
	for _, e := range s.extents {
		lo, hi := int(e.Start), int(e.Start+e.Count) // hi exclusive
		blo, bhi := lo>>3, (hi-1)>>3
		loMask := byte(0xFF) << (uint(lo) & 7)
		hiMask := byte(0xFF) >> (7 - (uint(hi-1) & 7))
		if blo == bhi {
			b[blo] |= loMask & hiMask
			continue
		}
		b[blo] |= loMask
		for i := blo + 1; i < bhi; i++ {
			b[i] = 0xFF
		}
		b[bhi] |= hiMask
	}
	for _, m := range s.elems {
		b[m>>3] |= 1 << (m & 7)
	}
}

// ContainerCounts reports the cardinality and the number of maximal runs
// of a dense vector, in one fused scan over the words.
func (v *Vector) ContainerCounts() (card, runs int) {
	var prev uint64 // bit 0 = last bit of the previous word
	for _, w := range v.words {
		card += bits.OnesCount64(w)
		// A run starts at every 1 whose predecessor bit is 0.
		runs += bits.OnesCount64(w &^ (w<<1 | prev))
		prev = w >> 63
	}
	return card, runs
}

// BlitInto ORs the members, shifted by off, into dst — the interface form
// of dst.Blit(v, off).
func (v *Vector) BlitInto(dst *Vector, off int) { dst.Blit(v, off) }

// AppendExtents appends the vector's maximal runs, shifted by off, to
// dst, coalescing with dst's tail. All-ones and all-zeros words advance
// 64 bits at a time.
func (v *Vector) AppendExtents(dst []Extent, off int) []Extent {
	open := -1 // start of the run the scan is inside, else -1
	for wi, w := range v.words {
		base := wi << 6
		pos := 0
		for pos < 64 {
			if open < 0 {
				rest := w >> uint(pos)
				if rest == 0 {
					break // no more runs start in this word
				}
				pos += bits.TrailingZeros64(rest)
				open = base + pos
			}
			// Find the run's end: the next 0 bit at or above pos. The
			// zero-filled high bits of w>>pos read as 1s after ^, so a
			// landing at or past bit 64 means the run reaches the word
			// end and may continue in the next word — keep it open.
			z := bits.TrailingZeros64(^(w >> uint(pos)))
			if pos+z >= 64 {
				pos = 64
				break
			}
			pos += z
			dst = appendExtent(dst, uint32(off+open), uint32(base+pos-open))
			open = -1
		}
	}
	if open >= 0 {
		// Bits at positions >= Len are zero by package invariant, so a
		// run still open past the last word ends exactly at the width.
		dst = appendExtent(dst, uint32(off+open), uint32(v.n-open))
	}
	return dst
}

// fillRange sets bits [lo, lo+n) of words — the word-fill kernel behind
// run blits, the run-container decode, and the extent remap.
func fillRange(words []uint64, lo, n int) {
	if n <= 0 {
		return
	}
	hi := lo + n // exclusive
	wlo, whi := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if wlo == whi {
		words[wlo] |= loMask & hiMask
		return
	}
	words[wlo] |= loMask
	for w := wlo + 1; w < whi; w++ {
		words[w] = ^uint64(0)
	}
	words[whi] |= hiMask
}

// clearRange clears bits [lo, lo+n) of words — fillRange's complement,
// behind the compressed-label AndNot kernel.
func clearRange(words []uint64, lo, n int) {
	if n <= 0 {
		return
	}
	hi := lo + n // exclusive
	wlo, whi := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if wlo == whi {
		words[wlo] &^= loMask & hiMask
		return
	}
	words[wlo] &^= loMask
	for w := wlo + 1; w < whi; w++ {
		words[w] = 0
	}
	words[whi] &^= hiMask
}

// UnionLabel ORs l's members into v, whatever l's representation: dense
// labels take the word-OR path, compressed sets blit their extents. This
// is the union kernel the original-representation merge and the liveness
// fold use so they accept both representations without materializing.
func (v *Vector) UnionLabel(l Label) error {
	if l.Len() != v.n {
		return fmt.Errorf("bitvec: length mismatch %d vs %d", v.n, l.Len())
	}
	l.BlitInto(v, 0)
	return nil
}

// AndNotLabel clears l's members from v — the focus/residual kernel for
// equivalence-class extraction over both representations. Compressed sets
// clear word-level per extent instead of materializing a dense copy.
func (v *Vector) AndNotLabel(l Label) error {
	switch o := l.(type) {
	case *Vector:
		return v.AndNot(o)
	case *Set:
		if o.width != v.n {
			return fmt.Errorf("bitvec: length mismatch %d vs %d", v.n, o.width)
		}
		if o.extents != nil {
			for _, e := range o.extents {
				clearRange(v.words, int(e.Start), int(e.Count))
			}
			return nil
		}
		for _, m := range o.elems {
			v.words[m>>6] &^= 1 << (uint(m) & 63)
		}
		return nil
	}
	panic("bitvec: unknown label implementation")
}

// XorLabel toggles l's members in v, whatever l's representation: dense
// labels take the word-XOR path, compressed sets flip word-level per
// extent and per member. This is the delta-fold kernel — a delta frame's
// label is the XOR of a node's labels in two successive rounds, and
// folding it into the live tree is exactly this toggle.
func (v *Vector) XorLabel(l Label) error {
	switch o := l.(type) {
	case *Vector:
		return v.XorWith(o)
	case *Set:
		if o.width != v.n {
			return fmt.Errorf("bitvec: length mismatch %d vs %d", v.n, o.width)
		}
		for _, e := range o.extents {
			flipRange(v.words, int(e.Start), int(e.Count))
		}
		for _, m := range o.elems {
			v.words[m>>6] ^= 1 << (uint(m) & 63)
		}
		return nil
	}
	panic("bitvec: unknown label implementation")
}

// flipRange toggles bits [lo, lo+n) of words — fillRange's XOR sibling,
// behind the compressed-label delta fold.
func flipRange(words []uint64, lo, n int) {
	if n <= 0 {
		return
	}
	hi := lo + n // exclusive
	wlo, whi := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if wlo == whi {
		words[wlo] ^= loMask & hiMask
		return
	}
	words[wlo] ^= loMask
	for w := wlo + 1; w < whi; w++ {
		words[w] = ^words[w]
	}
	words[whi] ^= hiMask
}

// Equal reports whether two labels have the same width and members,
// across representations: a dense vector and a compressed set with the
// same population are equal.
func Equal(a, b Label) bool {
	if a.Len() != b.Len() {
		return false
	}
	if av, ok := a.(*Vector); ok {
		if bv, ok := b.(*Vector); ok {
			return av.Equal(bv)
		}
	}
	ca, ra := a.ContainerCounts()
	cb, rb := b.ContainerCounts()
	if ca != cb || ra != rb {
		return false
	}
	ea := a.AppendExtents(make([]Extent, 0, ra), 0)
	eb := b.AppendExtents(make([]Extent, 0, rb), 0)
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// CompressVector returns a run-backed Set with v's population when
// compression beats the dense representation (chooseKind != dense), and
// nil when dense stays best. A non-nil reuse has its extent storage
// recycled, so steady-state callers (the sampler's trie emission) stop
// allocating once capacities stabilize. v is not retained.
func CompressVector(v *Vector, reuse *Set) *Set {
	card, runs := v.ContainerCounts()
	if chooseKind(v.n, card, runs) == kindDense {
		return nil
	}
	s := reuse
	if s == nil {
		s = &Set{}
	}
	ext := v.AppendExtents(s.extents[:0], 0)
	if len(ext) == 0 {
		ext = nil
	}
	*s = Set{width: v.n, card: card, runs: runs, extents: ext}
	return s
}
