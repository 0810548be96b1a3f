package bitvec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// This file implements the v3 label wire format: a container-tagged
// encoding where each label travels as whichever of three containers —
// dense words, run extents, or a member array — is smallest for its
// population.
//
// # v3 label format
//
// All integers are little endian. The header is 16 bytes so the payload
// of a label that starts 8-aligned is itself 8-aligned (the STR3 tree
// layout guarantees the start):
//
//	label3 := u32 width, u8 kind, u8 zero ×3, u32 count, u32 zero, payload
//
//	kind 0 (dense): count = ⌈width/64⌉ words; payload = count × u64
//	kind 1 (run):   count = run count; payload = count × (u32 start, u32 length)
//	kind 2 (array): count = member count; payload = count × u32 member,
//	                plus 4 zero bytes when count is odd
//
// Every payload is a multiple of 8 bytes, so labels preserve 8-alignment
// by construction. Runs are sorted, non-empty, strictly separated
// (adjacent runs must have been one run) and in range; array members are
// sorted, unique, and in range; dense words carry no bits at or beyond
// the width.
//
// # Container choice
//
// The encoded kind is not free: it must equal chooseKind(width,
// cardinality, runs) — the smallest container by payload bytes, ties
// broken run ≤ array ≤ dense. Encoders compute it at freeze time;
// decoders recompute it from the decoded population and reject a
// mismatch. That keeps the encoding canonical — decode∘encode is the
// identity on accepted inputs, exactly as for v1/v2 — at the cost of a
// fused popcount+run-count scan when a dense container arrives (the
// subsequent merge touches every word anyway).

// v3 label container kinds.
const (
	kindDense uint8 = 0
	kindRun   uint8 = 1
	kindArray uint8 = 2
)

const label3HeaderSize = 16

// label3PayloadSize reports the payload bytes of the given container kind
// for a population with the given shape.
func label3PayloadSize(kind uint8, width, card, runs int) int {
	switch kind {
	case kindRun:
		return 8 * runs
	case kindArray:
		return 4*card + 4*(card&1)
	default:
		return 8 * ((width + 63) / 64)
	}
}

// chooseKind picks the smallest container for a population: run extents,
// member array, or dense words, with ties broken run ≤ array ≤ dense.
// Deterministic in (width, card, runs) alone — both encoders and decoders
// rely on that.
func chooseKind(width, card, runs int) uint8 {
	runB := label3PayloadSize(kindRun, width, card, runs)
	arrB := label3PayloadSize(kindArray, width, card, runs)
	denseB := label3PayloadSize(kindDense, width, card, runs)
	if runB <= arrB && runB <= denseB {
		return kindRun
	}
	if arrB <= denseB {
		return kindArray
	}
	return kindDense
}

// Label3Size reports the exact v3 wire size of a label without encoding
// it.
func Label3Size(l Label) int {
	card, runs := l.ContainerCounts()
	kind := chooseKind(l.Len(), card, runs)
	return label3HeaderSize + label3PayloadSize(kind, l.Len(), card, runs)
}

// PutLabel3 writes the v3 container encoding of l into b, which must hold
// at least Label3Size(l) bytes, and reports the bytes written. Like
// Vector.PutBinary this is the indexed-write kernel of the tree encoder:
// no allocation, b's padding bytes are zeroed explicitly.
func PutLabel3(b []byte, l Label) int {
	width := l.Len()
	card, runs := l.ContainerCounts()
	kind := chooseKind(width, card, runs)
	binary.LittleEndian.PutUint32(b, uint32(width))
	b[4] = kind
	b[5], b[6], b[7] = 0, 0, 0
	count := runs
	switch kind {
	case kindArray:
		count = card
	case kindDense:
		count = (width + 63) / 64
	}
	binary.LittleEndian.PutUint32(b[8:], uint32(count))
	binary.LittleEndian.PutUint32(b[12:], 0)
	p := b[label3HeaderSize:]
	switch v := l.(type) {
	case *Vector:
		putLabel3Vector(p, v, kind, card)
	case *Set:
		putLabel3Set(p, v, kind, card)
	default:
		panic("bitvec: unknown label implementation")
	}
	return label3HeaderSize + label3PayloadSize(kind, width, card, runs)
}

// putLabel3Vector writes a dense vector's payload under the chosen kind.
func putLabel3Vector(p []byte, v *Vector, kind uint8, card int) {
	switch kind {
	case kindDense:
		if hostLittleEndian {
			copy(p, wordBytes(v.words))
			return
		}
		for i, w := range v.words {
			binary.LittleEndian.PutUint64(p[8*i:], w)
		}
	case kindRun:
		o := 0
		emitRuns(v, func(start, count uint32) {
			binary.LittleEndian.PutUint32(p[o:], start)
			binary.LittleEndian.PutUint32(p[o+4:], count)
			o += 8
		})
	case kindArray:
		o := 0
		for wi, w := range v.words {
			for w != 0 {
				binary.LittleEndian.PutUint32(p[o:], uint32(wi<<6+bits.TrailingZeros64(w)))
				o += 4
				w &= w - 1
			}
		}
		if card&1 == 1 {
			binary.LittleEndian.PutUint32(p[o:], 0)
		}
	}
}

// putLabel3Set writes a compressed set's payload under the chosen kind.
func putLabel3Set(p []byte, s *Set, kind uint8, card int) {
	switch kind {
	case kindDense:
		s.putDenseWords(p, (s.width+63)/64)
	case kindRun:
		o := 0
		if s.extents != nil {
			for _, e := range s.extents {
				binary.LittleEndian.PutUint32(p[o:], e.Start)
				binary.LittleEndian.PutUint32(p[o+4:], e.Count)
				o += 8
			}
			return
		}
		for i := 0; i < len(s.elems); {
			j := i + 1
			for j < len(s.elems) && s.elems[j] == s.elems[j-1]+1 {
				j++
			}
			binary.LittleEndian.PutUint32(p[o:], s.elems[i])
			binary.LittleEndian.PutUint32(p[o+4:], uint32(j-i))
			o += 8
			i = j
		}
	case kindArray:
		o := 0
		if s.elems != nil {
			for _, m := range s.elems {
				binary.LittleEndian.PutUint32(p[o:], m)
				o += 4
			}
		} else {
			for _, e := range s.extents {
				for k := uint32(0); k < e.Count; k++ {
					binary.LittleEndian.PutUint32(p[o:], e.Start+k)
					o += 4
				}
			}
		}
		if card&1 == 1 {
			binary.LittleEndian.PutUint32(p[o:], 0)
		}
	}
}

// emitRuns streams a vector's maximal runs in order.
func emitRuns(v *Vector, emit func(start, count uint32)) {
	open := -1
	for wi, w := range v.words {
		base := wi << 6
		pos := 0
		for pos < 64 {
			if open < 0 {
				rest := w >> uint(pos)
				if rest == 0 {
					break
				}
				pos += bits.TrailingZeros64(rest)
				open = base + pos
			}
			// See Vector.AppendExtents: a landing at or past bit 64 means
			// the run reaches the word end and may continue next word.
			z := bits.TrailingZeros64(^(w >> uint(pos)))
			if pos+z >= 64 {
				pos = 64
				break
			}
			pos += z
			emit(uint32(open), uint32(base+pos-open))
			open = -1
		}
	}
	if open >= 0 {
		emit(uint32(open), uint32(v.n-open))
	}
}

// parseLabel3Header validates the fixed 16-byte header and reports the
// dimensions. need is the total encoded size including the header.
func parseLabel3Header(b []byte) (width int, kind uint8, count, need int, err error) {
	if len(b) < label3HeaderSize {
		return 0, 0, 0, 0, errors.New("bitvec: truncated label header")
	}
	if b[5] != 0 || b[6] != 0 || b[7] != 0 || binary.LittleEndian.Uint32(b[12:]) != 0 {
		return 0, 0, 0, 0, errors.New("bitvec: nonzero label header padding")
	}
	width = int(binary.LittleEndian.Uint32(b))
	kind = b[4]
	count = int(binary.LittleEndian.Uint32(b[8:]))
	if kind > kindArray {
		return 0, 0, 0, 0, fmt.Errorf("bitvec: unknown label container kind %d", kind)
	}
	switch kind {
	case kindDense:
		if count != (width+63)/64 {
			return 0, 0, 0, 0, fmt.Errorf("bitvec: dense container has %d words for width %d", count, width)
		}
		need = label3HeaderSize + 8*count
	case kindRun:
		need = label3HeaderSize + 8*count
	case kindArray:
		need = label3HeaderSize + 4*count + 4*(count&1)
	}
	if need > len(b) || need < 0 {
		return 0, 0, 0, 0, errors.New("bitvec: truncated label payload")
	}
	return width, kind, count, need, nil
}

// checkCanonicalKind rejects a container whose kind is not the one
// chooseKind picks for its population — the property that keeps v3
// encodings unique per population.
func checkCanonicalKind(kind uint8, width, card, runs int) error {
	if want := chooseKind(width, card, runs); kind != want {
		return fmt.Errorf("bitvec: non-canonical container kind %d for %d members in %d runs at width %d (want %d)",
			kind, card, runs, width, want)
	}
	return nil
}

// UnmarshalLabel3 decodes a v3 label into a dense vector carved from the
// arena — the copying decode behind package-level tree decodes and the
// Original-representation merge, which both want dense labels. Reports
// the encoded size consumed.
func (a *Arena) UnmarshalLabel3(b []byte) (*Vector, int, error) {
	width, kind, count, need, err := parseLabel3Header(b)
	if err != nil {
		return nil, 0, err
	}
	p := b[label3HeaderSize:need]
	switch kind {
	case kindDense:
		v := a.grabVec()
		v.n = width
		v.words = a.grabWords(count)
		card, runs, err := fillWordsCounting(v.words, p, width)
		if err != nil {
			return nil, 0, err
		}
		if err := checkCanonicalKind(kind, width, card, runs); err != nil {
			return nil, 0, err
		}
		return v, need, nil
	case kindRun:
		v := a.New(width)
		card := 0
		prevEnd := uint32(0)
		for i := 0; i < count; i++ {
			e := Extent{
				Start: binary.LittleEndian.Uint32(p[8*i:]),
				Count: binary.LittleEndian.Uint32(p[8*i+4:]),
			}
			if i > 0 && e.Start <= prevEnd {
				if e.Start < prevEnd {
					return nil, 0, errors.New("bitvec: overlapping or unsorted run extents")
				}
				return nil, 0, errors.New("bitvec: adjacent run extents not coalesced")
			}
			if e.Count == 0 {
				return nil, 0, errors.New("bitvec: empty run extent")
			}
			if uint64(e.Start)+uint64(e.Count) > uint64(width) {
				return nil, 0, errors.New("bitvec: run extent beyond width")
			}
			fillRange(v.words, int(e.Start), int(e.Count))
			card += int(e.Count)
			prevEnd = e.Start + e.Count
		}
		if err := checkCanonicalKind(kind, width, card, count); err != nil {
			return nil, 0, err
		}
		return v, need, nil
	default: // kindArray
		v := a.New(width)
		runs := 0
		for i := 0; i < count; i++ {
			m := binary.LittleEndian.Uint32(p[4*i:])
			if i > 0 && m <= binary.LittleEndian.Uint32(p[4*i-4:]) {
				return nil, 0, errors.New("bitvec: unsorted or duplicate array members")
			}
			if int(m) >= width {
				return nil, 0, errors.New("bitvec: array member beyond width")
			}
			if i == 0 || m != binary.LittleEndian.Uint32(p[4*i-4:])+1 {
				runs++
			}
			v.words[m>>6] |= 1 << (m & 63)
		}
		if count&1 == 1 && binary.LittleEndian.Uint32(p[4*count:]) != 0 {
			return nil, 0, errors.New("bitvec: nonzero array padding")
		}
		if err := checkCanonicalKind(kind, width, count, runs); err != nil {
			return nil, 0, err
		}
		return v, need, nil
	}
}

// fillWordsCounting copies a dense payload into words while computing the
// population's cardinality and run count in the same pass, rejecting
// stray bits at or beyond the width.
func fillWordsCounting(words []uint64, p []byte, width int) (card, runs int, err error) {
	var prev uint64
	for i := range words {
		w := binary.LittleEndian.Uint64(p[8*i:])
		words[i] = w
		card += bits.OnesCount64(w)
		runs += bits.OnesCount64(w &^ (w<<1 | prev))
		prev = w >> 63
	}
	if tail := width & 63; tail != 0 && len(words) > 0 {
		if words[len(words)-1]>>uint(tail) != 0 {
			return 0, 0, errors.New("bitvec: set bits beyond width")
		}
	}
	return card, runs, nil
}

// AliasLabel3 decodes a v3 label for the filter hot path: the container
// payload aliases b directly when the host is little endian and the
// payload is suitably aligned (always, when b is a leased 8-aligned STR3
// buffer), and is copied into the arena otherwise — the same zero-copy
// discipline as AliasBinary, extended to compressed containers. Run and
// array containers decode to a frozen *Set whose backing slice views the
// wire; dense containers decode to an aliasing *Vector.
func (a *Arena) AliasLabel3(b []byte) (l Label, used int, aliased bool, err error) {
	width, kind, count, need, err := parseLabel3Header(b)
	if err != nil {
		return nil, 0, false, err
	}
	p := b[label3HeaderSize:need]
	switch kind {
	case kindDense:
		var words []uint64
		words, aliased = bytesWords(p)
		if !aliased {
			words = a.grabWords(count)
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(p[8*i:])
			}
		}
		card, runs, err := countWords(words, width)
		if err != nil {
			return nil, 0, false, err
		}
		if err := checkCanonicalKind(kind, width, card, runs); err != nil {
			return nil, 0, false, err
		}
		v := a.grabVec()
		v.n = width
		v.words = words
		return v, need, aliased, nil
	case kindRun:
		var ext []Extent
		ext, aliased = bytesExtents(p)
		if !aliased {
			ext = a.GrabExtents(count)
			for i := range ext {
				ext[i].Start = binary.LittleEndian.Uint32(p[8*i:])
				ext[i].Count = binary.LittleEndian.Uint32(p[8*i+4:])
			}
		} else {
			ext = ext[:count]
		}
		card := 0
		prevEnd := uint32(0)
		for i, e := range ext {
			if i > 0 && e.Start <= prevEnd {
				if e.Start < prevEnd {
					return nil, 0, false, errors.New("bitvec: overlapping or unsorted run extents")
				}
				return nil, 0, false, errors.New("bitvec: adjacent run extents not coalesced")
			}
			if e.Count == 0 {
				return nil, 0, false, errors.New("bitvec: empty run extent")
			}
			if uint64(e.Start)+uint64(e.Count) > uint64(width) {
				return nil, 0, false, errors.New("bitvec: run extent beyond width")
			}
			card += int(e.Count)
			prevEnd = e.Start + e.Count
		}
		if err := checkCanonicalKind(kind, width, card, count); err != nil {
			return nil, 0, false, err
		}
		s := a.grabSet()
		*s = Set{width: width, card: card, runs: count, extents: ext}
		if count == 0 {
			s.extents = nil
		}
		return s, need, aliased, nil
	default: // kindArray
		var elems []uint32
		elems, aliased = bytesU32s(p)
		if !aliased {
			elems = a.GrabU32s(count)
			for i := range elems {
				elems[i] = binary.LittleEndian.Uint32(p[4*i:])
			}
		} else {
			if count&1 == 1 && elems[count] != 0 {
				return nil, 0, false, errors.New("bitvec: nonzero array padding")
			}
			elems = elems[:count]
		}
		if !aliased && count&1 == 1 && binary.LittleEndian.Uint32(p[4*count:]) != 0 {
			return nil, 0, false, errors.New("bitvec: nonzero array padding")
		}
		runs := 0
		for i, m := range elems {
			if i > 0 && m <= elems[i-1] {
				return nil, 0, false, errors.New("bitvec: unsorted or duplicate array members")
			}
			if int(m) >= width {
				return nil, 0, false, errors.New("bitvec: array member beyond width")
			}
			if i == 0 || m != elems[i-1]+1 {
				runs++
			}
		}
		if err := checkCanonicalKind(kind, width, count, runs); err != nil {
			return nil, 0, false, err
		}
		s := a.grabSet()
		*s = Set{width: width, card: count, runs: runs, elems: elems}
		if count == 0 {
			s.elems = nil
		}
		return s, need, aliased, nil
	}
}

// countWords computes cardinality and run count over decoded words,
// rejecting stray bits beyond the width.
func countWords(words []uint64, width int) (card, runs int, err error) {
	var prev uint64
	for _, w := range words {
		card += bits.OnesCount64(w)
		runs += bits.OnesCount64(w &^ (w<<1 | prev))
		prev = w >> 63
	}
	if tail := width & 63; tail != 0 && len(words) > 0 {
		if words[len(words)-1]>>uint(tail) != 0 {
			return 0, 0, errors.New("bitvec: set bits beyond width")
		}
	}
	return card, runs, nil
}

// RemapLabel3 decodes a v3 label fused with the front-end remap: the
// decoded population scatters straight through the compiled permutation
// into a dense rank-order vector. Run containers remap as interval
// arithmetic — each extent routes through Remapper.scatterRange, which
// word-fills whole blocks of a block-periodic (round-robin) permutation
// and the maximal order-preserving stretches of any other — never per-bit
// unless the permutation forces it.
func (a *Arena) RemapLabel3(b []byte, r *Remapper) (*Vector, int, error) {
	width, kind, count, need, err := parseLabel3Header(b)
	if err != nil {
		return nil, 0, err
	}
	if width != r.SourceLen() {
		return nil, 0, fmt.Errorf("bitvec: remap has %d source bits, label has %d", r.SourceLen(), width)
	}
	dst := a.New(r.width)
	p := b[label3HeaderSize:need]
	switch kind {
	case kindDense:
		var card, runs int
		var prev uint64
		nw := count
		for i := 0; i < nw; i++ {
			w := binary.LittleEndian.Uint64(p[8*i:])
			card += bits.OnesCount64(w)
			runs += bits.OnesCount64(w &^ (w<<1 | prev))
			prev = w >> 63
		}
		if tail := width & 63; tail != 0 && nw > 0 {
			if binary.LittleEndian.Uint64(p[8*(nw-1):])>>uint(tail) != 0 {
				return nil, 0, errors.New("bitvec: set bits beyond width")
			}
		}
		if err := checkCanonicalKind(kind, width, card, runs); err != nil {
			return nil, 0, err
		}
		if err := r.scatterWire(dst.words, p, width, nw); err != nil {
			return nil, 0, err
		}
		return dst, need, nil
	case kindRun:
		card := 0
		prevEnd := uint32(0)
		for i := 0; i < count; i++ {
			e := Extent{
				Start: binary.LittleEndian.Uint32(p[8*i:]),
				Count: binary.LittleEndian.Uint32(p[8*i+4:]),
			}
			if i > 0 && e.Start <= prevEnd {
				if e.Start < prevEnd {
					return nil, 0, errors.New("bitvec: overlapping or unsorted run extents")
				}
				return nil, 0, errors.New("bitvec: adjacent run extents not coalesced")
			}
			if e.Count == 0 {
				return nil, 0, errors.New("bitvec: empty run extent")
			}
			if uint64(e.Start)+uint64(e.Count) > uint64(width) {
				return nil, 0, errors.New("bitvec: run extent beyond width")
			}
			r.scatterRange(dst.words, int(e.Start), int(e.Count))
			card += int(e.Count)
			prevEnd = e.Start + e.Count
		}
		if err := checkCanonicalKind(kind, width, card, count); err != nil {
			return nil, 0, err
		}
		return dst, need, nil
	default: // kindArray
		runs := 0
		for i := 0; i < count; i++ {
			m := binary.LittleEndian.Uint32(p[4*i:])
			if i > 0 && m <= binary.LittleEndian.Uint32(p[4*i-4:]) {
				return nil, 0, errors.New("bitvec: unsorted or duplicate array members")
			}
			if int(m) >= width {
				return nil, 0, errors.New("bitvec: array member beyond width")
			}
			if i == 0 || m != binary.LittleEndian.Uint32(p[4*i-4:])+1 {
				runs++
			}
			t := r.perm[m]
			dst.words[t>>6] |= 1 << (uint(t) & 63)
		}
		if count&1 == 1 && binary.LittleEndian.Uint32(p[4*count:]) != 0 {
			return nil, 0, errors.New("bitvec: nonzero array padding")
		}
		if err := checkCanonicalKind(kind, width, count, runs); err != nil {
			return nil, 0, err
		}
		return dst, need, nil
	}
}
