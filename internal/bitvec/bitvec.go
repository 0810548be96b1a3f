// Package bitvec implements the task-set representations at the center of
// the paper's Section V. Edge labels in STAT's call-graph prefix tree are
// sets of MPI ranks. The original implementation sized every bit vector to
// the full job (N bits per label at every level of the analysis tree); the
// optimized implementation keeps only subtree-local vectors that merge by
// concatenation and are remapped into MPI rank order once, at the front end.
// Both representations share this Vector type: what differs is the width a
// given analysis node uses and whether merging is Union or Concat.
//
// On v3 (STR3) wire streams a label additionally travels as whichever of
// three containers — dense words, run extents, or a member array — is
// smallest for its population (see the label3 format comment in
// label3.go), and decoders may surface it in memory as a frozen
// compressed Set instead of a Vector (see the sharing contract in
// set.go). The Label interface is the common currency.
package bitvec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Vector is a fixed-width bit set over task indexes [0, Len).
type Vector struct {
	n     int
	words []uint64
}

// New returns an empty vector of width n bits.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative width")
	}
	return &Vector{n: n, words: make([]uint64, (n+63)/64)}
}

// FromMembers returns a vector of width n with the given bits set.
func FromMembers(n int, members ...int) *Vector {
	v := New(n)
	for _, m := range members {
		v.Set(m)
	}
	return v
}

// Len reports the width of the vector in bits.
func (v *Vector) Len() int { return v.n }

// Set marks task i as a member. Out-of-range indexes panic: labels are
// always constructed against a known task space and a violation is a bug.
// The panic lives in a helper so Set itself stays inlinable — the
// sampling walk calls it once per sampled stack, on the node where the
// stack ends.
func (v *Vector) Set(i int) {
	if uint(i) >= uint(v.n) {
		v.rangePanic("Set", i)
	}
	// A signed shift count keeps Set within the inliner's budget.
	v.words[i>>6] |= 1 << (i & 63)
}

// Clear removes task i from the set.
func (v *Vector) Clear(i int) {
	if uint(i) >= uint(v.n) {
		v.rangePanic("Clear", i)
	}
	v.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Get reports whether task i is a member.
func (v *Vector) Get(i int) bool {
	if uint(i) >= uint(v.n) {
		v.rangePanic("Get", i)
	}
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

//go:noinline
func (v *Vector) rangePanic(op string, i int) {
	panic(fmt.Sprintf("bitvec: %s(%d) out of range [0,%d)", op, i, v.n))
}

// Count reports the number of members.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (v *Vector) Empty() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ErrWidthMismatch is returned by operations that require equal widths.
var ErrWidthMismatch = errors.New("bitvec: width mismatch")

// UnionWith adds every member of o to v. The widths must match — this is
// the merge operation of the *original* STAT representation, where every
// level of the tree uses full-job-width labels.
func (v *Vector) UnionWith(o *Vector) error {
	if o.n != v.n {
		return fmt.Errorf("%w: %d vs %d", ErrWidthMismatch, v.n, o.n)
	}
	for i, w := range o.words {
		v.words[i] |= w
	}
	return nil
}

// UnionWords ORs the listed words of o into v: UnionWith restricted to
// the words a caller knows can hold members, so a sparse population pays
// for its words rather than for the full width. The sampling seal folds
// each child's label into its parent this way, over the words the round's
// task indexes occupy. Word i covers bits [64i, 64i+64). Mismatched widths
// and a word index past the end panic: the caller built both vectors and
// the list against one task space, so either is a bug.
func (v *Vector) UnionWords(o *Vector, words []uint32) {
	if o.n != v.n {
		panic(fmt.Sprintf("bitvec: UnionWords width mismatch: %d vs %d", v.n, o.n))
	}
	dst, src := v.words, o.words[:len(v.words)]
	for _, i := range words {
		if int(i) >= len(dst) {
			panic(fmt.Sprintf("bitvec: UnionWords word %d out of range [0,%d)", i, len(dst)))
		}
		dst[i] |= src[i]
	}
}

// ClearWords zeroes the listed words of v: Reset restricted to the words
// a caller knows hold every member. A word past the end panics.
func (v *Vector) ClearWords(words []uint32) {
	for _, i := range words {
		v.words[i] = 0
	}
}

// IntersectWith keeps only members present in both sets.
func (v *Vector) IntersectWith(o *Vector) error {
	if o.n != v.n {
		return fmt.Errorf("%w: %d vs %d", ErrWidthMismatch, v.n, o.n)
	}
	for i, w := range o.words {
		v.words[i] &= w
	}
	return nil
}

// AndNot removes every member of o from v.
func (v *Vector) AndNot(o *Vector) error {
	if o.n != v.n {
		return fmt.Errorf("%w: %d vs %d", ErrWidthMismatch, v.n, o.n)
	}
	for i, w := range o.words {
		v.words[i] &^= w
	}
	return nil
}

// XorWith toggles every member of o in v — the symmetric-difference
// kernel behind delta frames: applied once it turns round N−1's label
// into round N's, applied twice it is the identity, which is what lets
// the front end fold delta frames into a live tree in place.
func (v *Vector) XorWith(o *Vector) error {
	if o.n != v.n {
		return fmt.Errorf("%w: %d vs %d", ErrWidthMismatch, v.n, o.n)
	}
	for i, w := range o.words {
		v.words[i] ^= w
	}
	return nil
}

// Concat returns a new vector of width v.Len()+o.Len() whose low bits are v
// and whose high bits are o. This is the merge operation of the *optimized*
// hierarchical representation: a parent's task space is the concatenation of
// its children's task spaces, so child labels combine without padding to the
// job width. Neither input is modified.
func Concat(vs ...*Vector) *Vector {
	return ConcatInto(&Vector{}, vs...)
}

// ConcatInto writes the concatenation of vs into dst, reusing dst's word
// storage when it is wide enough, and returns dst. dst's previous contents
// are discarded. The inputs must not alias dst. This is the caller-owned-
// buffer form of Concat for allocation-free steady-state merging.
func ConcatInto(dst *Vector, vs ...*Vector) *Vector {
	total := 0
	for _, v := range vs {
		total += v.n
	}
	dst.Reset(total)
	off := 0
	for _, v := range vs {
		dst.Blit(v, off)
		off += v.n
	}
	return dst
}

// Reset clears the vector and resizes it to width n bits, reusing the word
// storage when possible.
func (v *Vector) Reset(n int) {
	if n < 0 {
		panic("bitvec: negative width")
	}
	nw := (n + 63) / 64
	if cap(v.words) < nw {
		v.words = make([]uint64, nw)
	} else {
		v.words = v.words[:nw]
		for i := range v.words {
			v.words[i] = 0
		}
	}
	v.n = n
}

// Blit ORs src into v starting at bit offset off: for every member m of
// src, off+m becomes a member of v. The destination range [off, off+src.Len())
// must lie inside v. The copy runs at word speed for any offset — unaligned
// offsets (the common case when packing arbitrary-width subtree labels) use
// a shifted double-word write rather than per-bit Get/Set.
//
// Blit relies on the package invariant that bits at positions >= Len() of a
// well-formed Vector are zero; every constructor and mutator preserves it
// (UnmarshalBinary rejects encodings that violate it).
func (v *Vector) Blit(src *Vector, off int) {
	if off < 0 || off+src.n > v.n {
		panic(fmt.Sprintf("bitvec: Blit of %d bits at offset %d into %d bits", src.n, off, v.n))
	}
	sw := src.words
	if len(sw) == 0 {
		return
	}
	dw := v.words
	base := off >> 6
	shift := uint(off) & 63
	if shift == 0 {
		for i, w := range sw {
			dw[base+i] |= w
		}
		return
	}
	// hi is one past the last destination word the blit may touch; the
	// spill write of source word i lands in base+i+1, which is guarded
	// against both the blit's own extent and the end of dw.
	hi := (off + src.n + 63) >> 6
	for i, w := range sw {
		dw[base+i] |= w << shift
		if base+i+1 < hi {
			dw[base+i+1] |= w >> (64 - shift)
		}
	}
}

// Members returns the set's members in increasing order.
func (v *Vector) Members() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	c := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(c.words, v.words)
	return c
}

// Equal reports whether two vectors have the same width and members.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Remap returns a vector of width width where member i of v becomes member
// perm[i]. This is the front end's final step in the hierarchical scheme:
// the concatenated (daemon-order) vector is rearranged into MPI rank order.
// perm must have one entry per bit of v and every target must be in range
// and unique; violations return an error because the daemon→rank map comes
// from the runtime environment, not from this package.
//
// Remap validates perm on every call. Callers applying the same permutation
// to many vectors (every node of a merged tree) should compile it once with
// NewRemapper and use Remapper.Apply.
func (v *Vector) Remap(perm []int, width int) (*Vector, error) {
	if len(perm) != v.n {
		return nil, fmt.Errorf("bitvec: Remap perm has %d entries for %d bits", len(perm), v.n)
	}
	r, err := NewRemapper(perm, width)
	if err != nil {
		return nil, err
	}
	return r.Apply(v)
}

// SerializedSize reports the exact wire size of MarshalBinary's output.
// This is the quantity whose growth (8 + N/8 bytes per edge label in the
// original scheme) saturates the overlay network in Figure 5.
func (v *Vector) SerializedSize() int {
	return 8 + 8*len(v.words)
}

// MarshalBinary encodes the vector as: u32 width, u32 word count, words.
func (v *Vector) MarshalBinary() ([]byte, error) {
	return v.AppendBinary(make([]byte, 0, v.SerializedSize())), nil
}

// AppendBinary appends the encoding to dst in place and returns the result.
// With a dst of sufficient capacity it performs no allocation.
func (v *Vector) AppendBinary(dst []byte) []byte {
	base := len(dst)
	need := v.SerializedSize()
	if cap(dst)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+need]
	v.PutBinary(dst[base:])
	return dst
}

// PutBinary writes the encoding into b, which must hold at least
// SerializedSize bytes, and reports the bytes written. This is the
// indexed-write kernel under AppendBinary and the tree encoder: no append
// bookkeeping per field.
func (v *Vector) PutBinary(b []byte) int {
	binary.LittleEndian.PutUint32(b[0:4], uint32(v.n))
	binary.LittleEndian.PutUint32(b[4:8], uint32(len(v.words)))
	if hostLittleEndian {
		copy(b[8:], wordBytes(v.words))
	} else {
		for i, w := range v.words {
			binary.LittleEndian.PutUint64(b[8+8*i:], w)
		}
	}
	return 8 + 8*len(v.words)
}

// parseWireHeader validates the u32 width / u32 word-count header and the
// body length shared by every vector decode path, returning the width,
// word count and total encoded size. Kept in one place so arena-backed and
// heap-backed decodes can never diverge on what they accept.
func parseWireHeader(b []byte) (n, nw, need int, err error) {
	if len(b) < 8 {
		return 0, 0, 0, errors.New("bitvec: truncated header")
	}
	n = int(binary.LittleEndian.Uint32(b[0:4]))
	nw = int(binary.LittleEndian.Uint32(b[4:8]))
	if nw != (n+63)/64 {
		return 0, 0, 0, fmt.Errorf("bitvec: inconsistent header (width %d, %d words)", n, nw)
	}
	need = 8 + 8*nw
	if len(b) < need {
		return 0, 0, 0, fmt.Errorf("bitvec: truncated body (need %d bytes, have %d)", need, len(b))
	}
	return n, nw, need, nil
}

// fillWordsFromWire copies nw little-endian words from the wire body into
// words, then rejects stray bits beyond the declared width so Equal and
// Count are well defined on decoded values.
func fillWordsFromWire(words []uint64, b []byte, n, nw, need int) error {
	if hostLittleEndian {
		copy(wordBytes(words), b[8:need])
	} else {
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(b[8+8*i:])
		}
	}
	if n&63 != 0 && nw > 0 {
		if words[nw-1]&^((1<<(uint(n)&63))-1) != 0 {
			return errors.New("bitvec: stray bits beyond declared width")
		}
	}
	return nil
}

// UnmarshalBinary decodes a vector encoded by MarshalBinary and returns the
// number of bytes consumed.
func UnmarshalBinary(b []byte) (*Vector, int, error) {
	n, nw, need, err := parseWireHeader(b)
	if err != nil {
		return nil, 0, err
	}
	v := &Vector{n: n, words: make([]uint64, nw)}
	if err := fillWordsFromWire(v.words, b, n, nw, need); err != nil {
		return nil, 0, err
	}
	return v, need, nil
}

// String renders the set the way STAT labels prefix-tree edges:
// "count:[ranges]", e.g. "1022:[0,3-1023]". Ranges stream directly from the
// words — the full Members slice is never materialized.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(v.Count()))
	sb.WriteString(":[")
	v.writeRanges(&sb)
	sb.WriteByte(']')
	return sb.String()
}

// writeRanges streams the maximal runs of set bits into sb as
// comma-separated ranges without building a member slice. Runs of all-ones
// words extend 64 bits at a time.
func (v *Vector) writeRanges(sb *strings.Builder) {
	first := true
	start, prev := -1, -1
	flush := func() {
		if start < 0 {
			return
		}
		if !first {
			sb.WriteByte(',')
		}
		first = false
		sb.WriteString(strconv.Itoa(start))
		if prev != start {
			sb.WriteByte('-')
			sb.WriteString(strconv.Itoa(prev))
		}
	}
	for wi, w := range v.words {
		if w == ^uint64(0) && start >= 0 && prev == wi<<6-1 {
			prev += 64
			continue
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			i := wi<<6 + b
			if i == prev+1 && start >= 0 {
				prev = i
				continue
			}
			flush()
			start, prev = i, i
		}
	}
	flush()
}

// FormatRanges renders a sorted member list as comma-separated ranges,
// matching the paper's Figure 1 edge labels (e.g. "0,3-1023"). Vector.String
// streams the same format from the words directly; this function serves
// callers that already hold a member slice.
func FormatRanges(members []int) string {
	if len(members) == 0 {
		return ""
	}
	var sb strings.Builder
	start, prev := members[0], members[0]
	flush := func() {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		if start == prev {
			fmt.Fprintf(&sb, "%d", start)
		} else {
			fmt.Fprintf(&sb, "%d-%d", start, prev)
		}
	}
	for _, m := range members[1:] {
		if m == prev+1 {
			prev = m
			continue
		}
		flush()
		start, prev = m, m
	}
	flush()
	return sb.String()
}

// ParseRanges parses the output of FormatRanges back into a member list.
func ParseRanges(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var lo, hi int
		if strings.Contains(part, "-") {
			if _, err := fmt.Sscanf(part, "%d-%d", &lo, &hi); err != nil {
				return nil, fmt.Errorf("bitvec: bad range %q: %v", part, err)
			}
		} else {
			if _, err := fmt.Sscanf(part, "%d", &lo); err != nil {
				return nil, fmt.Errorf("bitvec: bad element %q: %v", part, err)
			}
			hi = lo
		}
		if hi < lo {
			return nil, fmt.Errorf("bitvec: inverted range %q", part)
		}
		for i := lo; i <= hi; i++ {
			out = append(out, i)
		}
	}
	return out, nil
}
