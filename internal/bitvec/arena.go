package bitvec

import "errors"

// arenaWordChunk is the default word-slab size (64 KiB of label bits) for
// allocations made without a Grow hint. Labels wider than a chunk get a
// dedicated slab of their exact size.
const arenaWordChunk = 8192

// arenaVecChunkMin/Max bound the geometric growth of header slabs: small
// first (a one-shot decode of a small tree should not pay for hundreds of
// headers), doubling toward Max for arenas that live long.
const (
	arenaVecChunkMin = 32
	arenaVecChunkMax = 4096
)

// Arena bulk-allocates Vectors: headers and word storage are carved from
// slabs, so decoding a whole tree of edge labels costs a handful of slab
// allocations instead of two per label. Reset makes every slab reusable at
// once — the owner (a trace codec, typically) calls it after all Vectors
// handed out since the previous Reset are dead. Using a Vector after its
// arena is Reset is a bug: the storage is recycled, not zeroed on Reset.
//
// The zero Arena is ready to use. An Arena is not safe for concurrent use.
type Arena struct {
	wordChunks [][]uint64
	wi, woff   int
	vecChunks  [][]Vector
	vi, voff   int
	setChunks  [][]Set
	si, soff   int
}

// Reset recycles every slab. All Vectors allocated from the arena must be
// dead; their storage is handed out again by subsequent allocations.
func (a *Arena) Reset() {
	a.wi, a.woff = 0, 0
	a.vi, a.voff = 0, 0
	a.si, a.soff = 0, 0
}

// Grow ensures at least nw words of free capacity, allocating one slab of
// exactly the shortfall when the retained slabs cannot cover it. Callers
// that know an upper bound on upcoming allocations (a decoder knows its
// input length) use it so a short-lived arena allocates to fit instead of
// paying the default chunk size.
func (a *Arena) Grow(nw int) {
	free := 0
	for i := a.wi; i < len(a.wordChunks) && free < nw; i++ {
		free += len(a.wordChunks[i])
		if i == a.wi {
			free -= a.woff
		}
	}
	if free >= nw {
		return
	}
	a.wordChunks = append(a.wordChunks, make([]uint64, nw-free))
}

// grabWords carves nw words (dirty — callers must overwrite or zero them)
// from the current slab, advancing to the next or allocating a new one as
// needed. Oversized requests get a dedicated exact-size slab.
func (a *Arena) grabWords(nw int) []uint64 {
	if nw == 0 {
		return nil
	}
	for a.wi < len(a.wordChunks) {
		c := a.wordChunks[a.wi]
		if len(c)-a.woff >= nw {
			w := c[a.woff : a.woff+nw : a.woff+nw]
			a.woff += nw
			return w
		}
		a.wi++
		a.woff = 0
	}
	size := arenaWordChunk
	if nw > size {
		size = nw
	}
	c := make([]uint64, size)
	a.wordChunks = append(a.wordChunks, c)
	a.wi = len(a.wordChunks) - 1
	a.woff = nw
	return c[0:nw:nw]
}

// grabVec carves one Vector header. Header slabs double in size as the
// arena grows, from arenaVecChunkMin up to arenaVecChunkMax.
func (a *Arena) grabVec() *Vector {
	for a.vi < len(a.vecChunks) {
		c := a.vecChunks[a.vi]
		if a.voff < len(c) {
			v := &c[a.voff]
			a.voff++
			return v
		}
		a.vi++
		a.voff = 0
	}
	size := arenaVecChunkMin << len(a.vecChunks)
	if size > arenaVecChunkMax || size < arenaVecChunkMin {
		size = arenaVecChunkMax
	}
	c := make([]Vector, size)
	a.vecChunks = append(a.vecChunks, c)
	a.vi = len(a.vecChunks) - 1
	a.voff = 1
	return &c[0]
}

// grabSet carves one Set header, with the same geometric slab growth as
// grabVec. The header is dirty; callers assign every field.
func (a *Arena) grabSet() *Set {
	for a.si < len(a.setChunks) {
		c := a.setChunks[a.si]
		if a.soff < len(c) {
			s := &c[a.soff]
			a.soff++
			return s
		}
		a.si++
		a.soff = 0
	}
	size := arenaVecChunkMin << len(a.setChunks)
	if size > arenaVecChunkMax || size < arenaVecChunkMin {
		size = arenaVecChunkMax
	}
	c := make([]Set, size)
	a.setChunks = append(a.setChunks, c)
	a.si = len(a.setChunks) - 1
	a.soff = 1
	return &c[0]
}

// GrabExtents carves storage for n extents (dirty — callers must assign
// every entry) from the word slabs: an Extent is exactly one word, so
// extent storage shares the arena's word budget via an in-memory
// reinterpretation (endianness-irrelevant; fields are written as fields).
func (a *Arena) GrabExtents(n int) []Extent {
	if n == 0 {
		return nil
	}
	return wordsExtents(a.grabWords(n))[:n:n]
}

// GrabU32s carves storage for n uint32s (dirty) from the word slabs, two
// per word.
func (a *Arena) GrabU32s(n int) []uint32 {
	if n == 0 {
		return nil
	}
	return wordsU32s(a.grabWords((n + 1) / 2))[:n:n]
}

// NewRunSet returns an arena-backed run-container Set adopting extents —
// the compressed counterpart of New for merge outputs. The extents must
// be canonical (sorted, non-empty, separated) and are retained; callers
// carve them with GrabExtents so the whole label lives in arena storage.
// Like every Set, the result is frozen: it dies with the arena's Reset
// cycle exactly as arena vectors do.
func (a *Arena) NewRunSet(width int, extents []Extent) *Set {
	card := 0
	for _, e := range extents {
		card += int(e.Count)
	}
	if len(extents) == 0 {
		extents = nil
	}
	s := a.grabSet()
	*s = Set{width: width, card: card, runs: len(extents), extents: extents}
	return s
}

// New returns an empty arena-backed vector of width n bits.
func (a *Arena) New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative width")
	}
	w := a.grabWords((n + 63) / 64)
	for i := range w {
		w[i] = 0
	}
	v := a.grabVec()
	*v = Vector{n: n, words: w}
	return v
}

// UnmarshalBinary decodes a vector encoded by Vector.MarshalBinary into
// arena-backed storage and reports the number of bytes consumed. It accepts
// exactly the inputs the package-level UnmarshalBinary accepts (both share
// parseWireHeader and fillWordsFromWire) and yields an equal Vector; only
// the storage discipline differs.
func (a *Arena) UnmarshalBinary(b []byte) (*Vector, int, error) {
	n, nw, need, err := parseWireHeader(b)
	if err != nil {
		return nil, 0, err
	}
	words := a.grabWords(nw)
	if err := fillWordsFromWire(words, b, n, nw, need); err != nil {
		return nil, 0, err
	}
	v := a.grabVec()
	*v = Vector{n: n, words: words}
	return v, need, nil
}

// RemapBinary decodes a vector encoded by Vector.MarshalBinary directly
// through a compiled permutation: the returned arena-backed vector has
// width r.Width() and holds the wire label's members pushed through r.
// The wire label's declared width must equal r.SourceLen(). This is the
// decode-fused front-end remap — each wire word is read once and its set
// bits scatter straight to their remapped targets, with no intermediate
// vector and no second sweep — and it accepts exactly the encodings
// UnmarshalBinary accepts (shared header parse, same canonical-form
// check).
func (a *Arena) RemapBinary(b []byte, r *Remapper) (*Vector, int, error) {
	n, nw, need, err := parseWireHeader(b)
	if err != nil {
		return nil, 0, err
	}
	words := a.grabWords((r.Width() + 63) / 64)
	for i := range words {
		words[i] = 0
	}
	if err := r.scatterWire(words, b[8:need], n, nw); err != nil {
		return nil, 0, err
	}
	v := a.grabVec()
	*v = Vector{n: r.Width(), words: words}
	return v, need, nil
}

// AliasBinary decodes like UnmarshalBinary but avoids the word copy when
// it can: on little-endian hosts, when b's word bytes happen to be 8-byte
// aligned in memory, the returned vector's words are a view of b itself.
// Otherwise (big-endian host, or the label landed at an unaligned offset
// of its packet) it copies into arena storage exactly as UnmarshalBinary
// does. aliased reports which path was taken; the decoded value is
// identical either way, and both paths accept exactly the same inputs.
//
// An aliased vector is a read-only view: mutating it would scribble on the
// wire buffer, and its words live only as long as b's backing array — the
// caller must pin the buffer (see trace.DecodeOpts.Pin) until
// the vector is dead.
func (a *Arena) AliasBinary(b []byte) (v *Vector, used int, aliased bool, err error) {
	n, nw, need, err := parseWireHeader(b)
	if err != nil {
		return nil, 0, false, err
	}
	words, ok := bytesWords(b[8:need])
	if !ok {
		words = a.grabWords(nw)
		if err := fillWordsFromWire(words, b, n, nw, need); err != nil {
			return nil, 0, false, err
		}
	} else if n&63 != 0 && nw > 0 {
		// Same canonical-form check fillWordsFromWire applies: stray bits
		// beyond the declared width make Equal and Count ill-defined.
		if words[nw-1]&^((1<<(uint(n)&63))-1) != 0 {
			return nil, 0, false, errors.New("bitvec: stray bits beyond declared width")
		}
	}
	v = a.grabVec()
	*v = Vector{n: n, words: words}
	return v, need, ok, nil
}
