package bitvec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Remapper is a compiled permutation from a source task space onto a target
// task space of Width() bits. Compiling validates the permutation once —
// every target in range, no duplicates — so applying it to a label costs
// O(words + set bits) instead of the O(width) full-scan (plus a fresh
// duplicate-tracking vector) that per-call validation requires. The front
// end remaps every node of two merged trees through the same permutation,
// which is exactly the shape this type exists for.
//
// Two apply forms cover the front end's shapes:
//
//   - Apply/ApplyInto: scattered stores into a fresh (or caller-owned)
//     target vector — the classic two-pass form.
//   - ScatterWire (via Arena.RemapBinary): the decode-fused form. Each wire
//     word is loaded once — a direct word view when the bytes land 8-byte
//     aligned, as the STR2 wire format guarantees — and its set bits
//     scatter straight to their remapped targets. One pass over the wire,
//     no intermediate vector, no second scattered-store sweep.
//
// The run-container decode (Arena.RemapLabel3) remaps each extent by
// interval arithmetic (scatterRange): through the permutation's block
// period when it has one — the round-robin task maps core builds, where
// no two neighbouring sources land next to each other — and through its
// slope-1 stretches otherwise.
//
// A Remapper keeps a reference to perm rather than copying it; the caller
// must not mutate perm while the Remapper is in use. A Remapper is
// read-only after construction and safe for concurrent Apply calls.
type Remapper struct {
	perm  []int
	width int
	// period is the permutation's block period B (see blockPeriod), or 0
	// when it has none.
	period int
}

// NewRemapper compiles and validates a permutation. perm maps source bit i
// to target bit perm[i]; width is the target task-space width. Every target
// must be in [0, width) and unique.
func NewRemapper(perm []int, width int) (*Remapper, error) {
	if width < 0 {
		return nil, fmt.Errorf("bitvec: Remap width %d negative", width)
	}
	seen := New(width)
	for _, target := range perm {
		if target < 0 || target >= width {
			return nil, fmt.Errorf("bitvec: Remap target %d out of range [0,%d)", target, width)
		}
		if seen.Get(target) {
			return nil, fmt.Errorf("bitvec: Remap target %d duplicated", target)
		}
		seen.Set(target)
	}
	return &Remapper{perm: perm, width: width, period: blockPeriod(perm)}, nil
}

// blockPeriod returns the smallest B > 0 with perm[s+B] == perm[s]+1 for
// every s < len(perm)-B, or 0 when no such B exists. Such a permutation
// maps source j·B+k to perm[k]+j: it deals sources round-robin in blocks
// of B, which is the shape core's rank permutation takes when every
// daemon serves B ranks of a round-robin task map (daemon d's k-th rank is
// d + k·D). The candidate is the one index holding perm[0]+1, so the
// search and its check are one O(len(perm)) pass each.
func blockPeriod(perm []int) int {
	if len(perm) < 2 {
		return 0
	}
	b := 0
	for i := 1; i < len(perm); i++ {
		if perm[i] == perm[0]+1 {
			b = i
			break
		}
	}
	if b == 0 {
		return 0
	}
	for s, p := range perm[:len(perm)-b] {
		if perm[s+b] != p+1 {
			return 0
		}
	}
	return b
}

// Width reports the target task-space width.
func (r *Remapper) Width() int { return r.width }

// SourceLen reports the source task-space width (the permutation's length).
func (r *Remapper) SourceLen() int { return len(r.perm) }

// Apply returns a new vector of width r.Width() holding v's members pushed
// through the permutation. v's width must equal the permutation's length.
func (r *Remapper) Apply(v *Vector) (*Vector, error) {
	out := New(r.width)
	if err := r.ApplyInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyInto overwrites dst (which must have width r.Width()) with v's
// members pushed through the permutation. It allocates nothing: the cost is
// zeroing dst's words plus one indexed store per member of v.
func (r *Remapper) ApplyInto(dst, v *Vector) error {
	if len(r.perm) != v.n {
		return fmt.Errorf("bitvec: Remap perm has %d entries for %d bits", len(r.perm), v.n)
	}
	if dst.n != r.width {
		return fmt.Errorf("%w: ApplyInto dst width %d, Remapper width %d", ErrWidthMismatch, dst.n, r.width)
	}
	dw := dst.words
	for i := range dw {
		dw[i] = 0
	}
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			target := r.perm[wi<<6+b]
			dw[target>>6] |= 1 << (uint(target) & 63)
		}
	}
	return nil
}

// scatterWire pushes the set bits of nw little-endian wire words in body
// through the permutation into dst, a pre-zeroed word slice of width
// r.width bits; n is the declared source width, which must equal the
// permutation's length. Each wire word is loaded exactly once — via a
// direct word view when the body bytes land 8-aligned in memory (what the
// STR2 wire format arranges), via portable loads otherwise — and its set
// bits scatter straight to their targets. This is the decode-fused remap
// kernel: no intermediate vector is materialized and no second sweep over
// the label ever runs. It applies the same canonical-form check as the
// plain decode paths (no stray bits beyond the declared width).
func (r *Remapper) scatterWire(dst []uint64, body []byte, n, nw int) error {
	if n != len(r.perm) {
		return fmt.Errorf("bitvec: Remap perm has %d entries for %d wire bits", len(r.perm), n)
	}
	perm := r.perm
	tail := uint64(0)
	if n&63 != 0 && nw > 0 {
		tail = ^((1 << (uint(n) & 63)) - 1)
	}
	if ws, ok := bytesWords(body); ok {
		for wi, w := range ws {
			if wi == nw-1 && w&tail != 0 {
				return errors.New("bitvec: stray bits beyond declared width")
			}
			base := wi << 6
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				target := perm[base+b]
				dst[target>>6] |= 1 << (uint(target) & 63)
			}
		}
		return nil
	}
	for wi := 0; wi < nw; wi++ {
		w := binary.LittleEndian.Uint64(body[8*wi:])
		if wi == nw-1 && w&tail != 0 {
			return errors.New("bitvec: stray bits beyond declared width")
		}
		base := wi << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			target := perm[base+b]
			dst[target>>6] |= 1 << (uint(target) & 63)
		}
	}
	return nil
}

// scatterRange pushes the source run [start, start+count) through the
// permutation into dst, a pre-zeroed word slice of width r.width bits.
// This is the interval-arithmetic remap of the v3 run container. When the
// permutation has a block period B (blockPeriod), source j·B+k lands on
// perm[k]+j, so the extent's whole blocks [j0, j1) remap as B word fills
// of j1-j0 bits each — one per block offset k, starting at perm[j0·B+k] —
// and only the partial head and tail blocks store bit by bit. A
// round-robin task map over D daemons of B ranks each therefore remaps a
// run of the whole job in B fills of D bits. Without a period, the kernel
// word-fills the maximal stretches where the permutation is
// order-preserving with slope 1 (perm[j+1] == perm[j]+1), degrading to
// single-bit stores only where the permutation genuinely shuffles
// (uneven round-robin maps, survivor maps, random shuffles) — never worse
// than the dense scatter. The caller has validated the extent against
// the source width.
func (r *Remapper) scatterRange(dst []uint64, start, count int) {
	perm := r.perm
	end := start + count
	if b := r.period; b > 0 {
		if j0, j1 := (start+b-1)/b, end/b; j0 < j1 {
			// With B > 1 no two neighbouring sources are a slope-1
			// stretch (perm[k+1] == perm[k]+1 == perm[k+B] would repeat a
			// target), so the partial blocks have nothing to fill by word.
			for _, p := range perm[start : j0*b] {
				dst[p>>6] |= 1 << (uint(p) & 63)
			}
			n := j1 - j0
			for _, p := range perm[j0*b : j0*b+b] {
				fillRange(dst, p, n)
			}
			for _, p := range perm[j1*b : end] {
				dst[p>>6] |= 1 << (uint(p) & 63)
			}
			return
		}
	}
	for i := start; i < end; {
		p := perm[i]
		j := i + 1
		for j < end && perm[j] == p+(j-i) {
			j++
		}
		fillRange(dst, p, j-i)
		i = j
	}
}
