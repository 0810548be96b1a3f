package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"stat/internal/bitvec"
)

// # Wire format specification
//
// Three tree wire formats exist, distinguished by magic. v2 and v3 are
// written and negotiated per stream by the protocol layer (see package
// proto); v1 is read-only — earlier builds wrote it, and Decode still
// opens saved v1 captures, but nothing encodes it any more. All integers
// are little endian; in v1 and v2 a label is a bitvec binary value (u32
// width, u32 word count, words).
//
// Version 1, magic "STR1" — the compact original layout (decode only):
//
//	tree := magic "STR1" (4 bytes), u32 numTasks, node
//	node := u16 nameLen, name, label, u32 childCount, node*
//
// Version 2, magic "STR2" — the 8-aligned layout. Every field group is
// padded with zero bytes to the next 8-byte boundary, measured from the
// start of the tree encoding:
//
//	tree := magic "STR2" (4 bytes), u32 numTasks, node
//	node := u16 nameLen, name, pad8, label, u32 childCount, u32 zero, node*
//
// where pad8 is 0–7 zero bytes advancing the offset to a multiple of 8.
// The tree header is 8 bytes, the padded name record and the trailing
// child-count group are multiples of 8, and a label (8-byte header plus
// whole words) is a multiple of 8, so by induction every node — and in
// particular every label's word area — begins at an offset that is a
// multiple of 8 from the tree start. When the enclosing framing places the
// tree start 8-aligned in memory (the packet and tree-list framings do),
// every label word lands word-aligned and the zero-copy decode
// aliases 100% of labels instead of the ~1/8 that happen to align under
// v1. The price is the padding: at BG/L widths labels dwarf names, so the
// overhead is a few percent of wire size.
//
// Alignment rule: decoders measure padding from the start of the tree
// encoding (offset 0 = first magic byte), so a v2 tree is self-consistent
// wherever it lands; only the *aliasing* payoff needs the enclosing buffer
// to be 8-aligned in memory.
//
// Version 3, magic "STR3" — the adaptive compressed-label layout. The
// node structure, padding discipline and alignment rule are exactly v2's;
// only the label encoding differs:
//
//	tree   := magic "STR3" (4 bytes), u32 numTasks, node
//	node   := u16 nameLen, name, pad8, label3, u32 childCount, u32 zero, node*
//	label3 := u32 width, u8 kind, u8 zero ×3, u32 count, u32 zero, payload
//
// The label3 header is 16 bytes, so an 8-aligned label starts its payload
// 8-aligned too. kind selects the container and count sizes the payload:
//
//	kind 0 (dense): count = ceil(width/64); payload is count u64 words,
//	  exactly the v1/v2 word area — bits beyond width must be zero.
//	kind 1 (run):   count run extents, each (u32 start, u32 length) with
//	  length ≥ 1, sorted, non-overlapping and non-adjacent (maximal runs).
//	kind 2 (array): count member ranks as sorted, strictly increasing u32,
//	  plus one zero u32 of padding when count is odd.
//
// Every payload is a whole number of 8-byte groups, preserving v2's
// induction: every label — dense words, run extents, or member array —
// lands 8-aligned and the zero-copy decode can alias any container kind.
// The kind is not a free choice: encoders pick the smallest container for
// the population (ties break run ≤ array ≤ dense) and decoders reject any
// other kind for that population, keeping the encoding canonical. See
// bitvec's label3 documentation for the byte-exact container rules and
// the choice heuristic.
//
// All decoders admit only canonical encodings — nonzero padding, stray
// label bits, non-canonical containers, non-sorted children and trailing
// bytes are all rejected — so decode∘encode is the identity on accepted
// inputs, per version.
//
// # Delta frames, magics "STD2" and "STD3"
//
// A delta frame carries the CHANGE between a subtree's trees in two
// successive stream rounds instead of the whole tree. Byte for byte it is
// the v2/v3 tree layout under a delta magic — same fields, same padding
// discipline, same alignment rule, same canonical-container rules:
//
//	delta  := magic "STD2" (4 bytes), u32 numTasks, dnode   (v2 labels)
//	delta  := magic "STD3" (4 bytes), u32 numTasks, dnode   (v3 label3)
//	dnode  := exactly the node layout of the same-numbered STR format
//
// Only the label SEMANTICS differ: a dnode's label is the bitwise XOR of
// the node's task sets in round N and round N−1, where a node absent from
// a round contributes the empty set. The three tentpole cases fall out of
// that one rule:
//
//	new node:      XOR = its full round-N label (XOR with zero)
//	removed node:  XOR = its full round-N−1 label (XOR to zero)
//	changed node:  XOR = the toggled ranks only
//	untouched:     XOR = ∅ — the node is OMITTED from the frame
//
// Folding a frame into the live tree is therefore label ^= XOR along
// aligned node paths, creating nodes the live tree lacks and deleting
// nodes whose labels fold to empty (see ApplyDelta). XOR is linear, so
// the rank remap and the concat offset shift commute with it — delta
// frames ride the same fused-remap decode and k-way concat merge as whole
// trees, and interior filters combine disjoint change sets by
// concatenation (hierarchical) or XOR (original mode's full-width labels).
//
// Canonical form adds one rule on top of the base format's: a non-root
// dnode with an empty XOR label MUST have at least one child (it exists
// only to route the path to changed descendants); an empty-XOR leaf
// contributes nothing and is rejected. The root is exempt — a root-only
// frame with an empty label is the canonical "nothing changed" frame.
// There is no v1 delta format.
//
// The format is deliberately explicit about label width: in the original
// representation every label is full-job width, so the encoded size of a
// daemon's tree grows with the whole job even though only a few bits are
// set. That blowup — visible directly in SerializedSize — is the network
// pressure behind Figure 5.

// Wire format versions. The values match the protocol versions carried in
// packet headers (proto.Version / proto.MaxVersion): a stream negotiated
// to version v carries trees in tree wire format v.
const (
	// WireV1 is the compact v1 layout (magic "STR1"), decoded for saved
	// captures and never encoded.
	WireV1 uint8 = 1
	// WireV2 is the 8-aligned layout (magic "STR2") whose labels always
	// land word-aligned for the zero-copy decode.
	WireV2 uint8 = 2
	// WireV3 is the 8-aligned layout with adaptive compressed labels
	// (magic "STR3"): each label travels as the smallest of a run, array
	// or dense container, so wire size tracks a label's run structure
	// instead of the task-space width.
	WireV3 uint8 = 3
	// MaxWireVersion is the newest format this build encodes and decodes.
	// Encoders accept WireV2..MaxWireVersion.
	MaxWireVersion = WireV3
)

var (
	magicV1 = [4]byte{'S', 'T', 'R', '1'}
	magicV2 = [4]byte{'S', 'T', 'R', '2'}
	magicV3 = [4]byte{'S', 'T', 'R', '3'}
	// Delta-frame magics: the same-numbered layout carrying XOR labels
	// (see the delta-frame section of the wire spec above).
	magicD2 = [4]byte{'S', 'T', 'D', '2'}
	magicD3 = [4]byte{'S', 'T', 'D', '3'}
)

// SniffWireVersion reports which wire format b begins with, from the
// magic alone. It is how version-dispatched decoders (Decode, core's
// tree-list framing) pick a layout. Delta
// frames are rejected here: a consumer expecting a whole tree must not
// silently accept XOR labels (use SniffFrame to admit both).
func SniffWireVersion(b []byte) (uint8, error) {
	if len(b) < 4 {
		return 0, errors.New("trace: truncated header")
	}
	switch [4]byte(b[0:4]) {
	case magicV1:
		return WireV1, nil
	case magicV2:
		return WireV2, nil
	case magicV3:
		return WireV3, nil
	}
	return 0, errBadMagic
}

// SniffFrame reports the wire version b begins with and whether it is a
// delta frame ("STD2"/"STD3") rather than a whole tree. Consumers that
// can handle both kinds (the stream gather's tree-list framing) dispatch
// here; whole-tree-only consumers keep using SniffWireVersion, whose
// rejection of delta magics is what stops an XOR label set from being
// mistaken for a task set.
func SniffFrame(b []byte) (version uint8, delta bool, err error) {
	if len(b) < 4 {
		return 0, false, errors.New("trace: truncated header")
	}
	switch [4]byte(b[0:4]) {
	case magicD2:
		return WireV2, true, nil
	case magicD3:
		return WireV3, true, nil
	}
	v, err := SniffWireVersion(b)
	return v, false, err
}

// errBadMagic names the accepted version range; built once (not per
// call) because version probing sniffs speculatively on hot paths.
var errBadMagic = fmt.Errorf("trace: bad magic (this build speaks v%d..v%d)", WireV1, MaxWireVersion)

// pad8 reports the zero padding that advances offset n to the next 8-byte
// boundary.
func pad8(n int) int { return -n & 7 }

// SerializedSizeV reports the exact encoded size under the given wire
// version (WireV2 or WireV3) without allocating it.
func (t *Tree) SerializedSizeV(version uint8) int {
	size := 4 + 4
	t.walk(func(n *Node, _ int) {
		name := 2 + len(n.Frame.Function)
		size += name + pad8(name) + 8
		if version == WireV3 {
			size += bitvec.Label3Size(n.Tasks)
		} else {
			size += n.Tasks.SerializedSize()
		}
	})
	return size
}

// MarshalBinaryV encodes the tree in the requested wire format version.
func (t *Tree) MarshalBinaryV(version uint8) ([]byte, error) {
	return t.AppendBinaryV(make([]byte, 0, t.SerializedSizeV(version)), version)
}

// AppendBinaryV appends the wire encoding under the given version to dst
// in place and returns the result. The destination is grown to the exact
// encoded size once and every field is written by index — no per-node
// allocation and no append bookkeeping per field. With a dst of sufficient
// capacity the encode performs no allocation at all.
func (t *Tree) AppendBinaryV(dst []byte, version uint8) ([]byte, error) {
	return t.appendBinary(dst, version, false)
}

// AppendBinaryDeltaV appends the delta-frame encoding ("STD2"/"STD3") of
// the tree to dst: the identical byte layout under the delta magic, for a
// tree whose labels are round-over-round XOR sets (see the delta-frame
// wire spec).
func (t *Tree) AppendBinaryDeltaV(dst []byte, version uint8) ([]byte, error) {
	return t.appendBinary(dst, version, true)
}

func (t *Tree) appendBinary(dst []byte, version uint8, delta bool) ([]byte, error) {
	if version < WireV2 || version > MaxWireVersion {
		return nil, fmt.Errorf("trace: cannot encode wire version %d (this build encodes v%d..v%d)", version, WireV2, MaxWireVersion)
	}
	base := len(dst)
	need := t.SerializedSizeV(version)
	if cap(dst)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, dst)
		dst = grown
	}
	// The writer below fills every byte of [base, base+need) — padding
	// included; growing by reslice (not zero-fill) is safe because the
	// encoding is gapless.
	dst = dst[:base+need]
	o := base
	switch {
	case delta && version == WireV3:
		o += copy(dst[o:], magicD3[:])
	case delta:
		o += copy(dst[o:], magicD2[:])
	case version == WireV3:
		o += copy(dst[o:], magicV3[:])
	default:
		o += copy(dst[o:], magicV2[:])
	}
	binary.LittleEndian.PutUint32(dst[o:], uint32(t.NumTasks))
	o += 4
	var rec func(n *Node) error
	rec = func(n *Node) error {
		name := n.Frame.Function
		if len(name) > math.MaxUint16 {
			return fmt.Errorf("trace: function name %d bytes exceeds wire limit", len(name))
		}
		binary.LittleEndian.PutUint16(dst[o:], uint16(len(name)))
		o += 2
		o += copy(dst[o:], name)
		// Offsets are tracked relative to dst's base; the pad depends
		// only on o-base mod 8, and base is 0 mod 8 relative to itself.
		for p := pad8(o - base); p > 0; p-- {
			dst[o] = 0
			o++
		}
		if version == WireV3 {
			o += bitvec.PutLabel3(dst[o:], n.Tasks)
		} else {
			o += n.Tasks.PutBinary(dst[o:])
		}
		binary.LittleEndian.PutUint32(dst[o:], uint32(len(n.Children)))
		binary.LittleEndian.PutUint32(dst[o+4:], 0)
		o += 8
		for _, c := range n.Children {
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.Root); err != nil {
		return nil, err
	}
	return dst, nil
}

// internPool recycles function-name intern tables across codec-less
// decodes, so repeated decodes of trees sharing a function
// namespace (every gather of the same application) stop allocating name
// strings after the first. Tables are used exclusively by one decode at a
// time; the strings they hand out are immutable and safely shared.
var internPool = sync.Pool{New: func() any { t := newInternTable(); return &t }}

// DecodeOpts selects how Decode materializes a tree. The zero value
// decodes a whole tree into storage the result owns outright.
type DecodeOpts struct {
	// Codec, when set, supplies the labels' arena, the nodes and the tree
	// header: the result borrows the codec until it is released (see the
	// Codec lifecycle notes). This is the filter hot path's decode.
	Codec *Codec
	// Pin, when set, makes the decode zero-copy: labels whose wire bytes
	// land 8-byte aligned on a little-endian host view b instead of being
	// copied, and the codec retains Pin once for the tree, releasing it
	// from Tree.Release, so b outlives every label that views it. The
	// caller must keep b immutable until then (a tbon.Lease payload is).
	// The result is read-only: it may be merged by MergeConcat, encoded,
	// or passed as the source of MergeUnion/MergeXor, never mutated.
	// Requires Codec.
	Pin Pin
	// Remap, when set, fuses the front end's rank permutation into the
	// decode: every label scatters through it as it is materialized from
	// the wire, so the result spans Remap.Width() tasks in rank order with
	// no second pass over the tree. The wire tree's width must equal
	// Remap.SourceLen(). A remapped tree is a long-lived result, so it
	// owns its storage: Remap excludes Codec.
	Remap *bitvec.Remapper
	// Delta expects a delta frame ("STD2"/"STD3") instead of a whole
	// tree; each kind rejects the other's magic. The result's labels are
	// XOR sets, meaningful only to ApplyDelta and the delta merges.
	Delta bool
}

var (
	errPinWithoutCodec = errors.New("trace: Decode with a Pin requires a Codec")
	errCodecAndRemap   = errors.New("trace: Decode with a Remap owns its result and takes no Codec")
)

// Decode decodes a tree or delta frame, dispatching on the wire magic, so
// v1 captures, v2 and v3 encodings all open. Options combine as
// documented on DecodeOpts; a combination the options exclude is an
// error, never a guess. Without a codec, function names are interned
// through a package pool of intern tables, so repeated decodes of one
// function namespace stop allocating name strings after the first.
func Decode(b []byte, o DecodeOpts) (*Tree, error) {
	if o.Codec != nil {
		if o.Remap != nil {
			return nil, errCodecAndRemap
		}
		return o.Codec.decode(b, o.Pin, o.Delta)
	}
	if o.Pin != nil {
		return nil, errPinWithoutCodec
	}
	names := internPool.Get().(*internTable)
	var arena bitvec.Arena
	t, _, err := decodeTree(b, names, &arena, &nodeBatch{}, nil, false, o.Remap, o.Delta)
	internPool.Put(names)
	return t, err
}

// UnmarshalBinary decodes a whole tree into storage it owns outright:
// Decode with the zero DecodeOpts.
func UnmarshalBinary(b []byte) (*Tree, error) { return Decode(b, DecodeOpts{}) }

// maxDecodeDepth bounds the recursion of decodeTree. Go grows goroutine
// stacks on demand, so deep recursion is a resource concern rather than a
// memory-safety one; the cap keeps an adversarial encoding from demanding
// an absurd stack. Input length bounds the depth too — every node consumes
// at least 14 bytes (2 name-length + 8 label header + 4 child count)
// before recursing — so the cap only bites inputs larger than ~900 KiB of
// pure nesting.
const maxDecodeDepth = 1 << 16

// treeDecoder is the recursive decoder behind Decode: names are interned through names, label headers and
// words are carved from arena (or alias the input in aliasing mode, or
// scatter through remap in fused-remap mode), and nodes come from the
// codec free list, then batch, then the shared node pool. A struct with a
// method rather than a recursive closure: no per-call closure allocation,
// direct recursive calls.
type treeDecoder struct {
	b        []byte
	pos      int
	numTasks int
	version  uint8
	names    *internTable
	arena    *bitvec.Arena
	batch    *nodeBatch
	codec    *Codec           // non-nil: draw nodes from the codec free list
	alias    bool             // zero-copy labels where alignment allows
	aliased  bool             // some label aliases b
	remap    *bitvec.Remapper // non-nil: labels remapped as they materialize
	delta    bool             // decoding a delta frame (XOR labels)
}

func decodeTree(b []byte, names *internTable, arena *bitvec.Arena, batch *nodeBatch, codec *Codec, alias bool, remap *bitvec.Remapper, delta bool) (*Tree, bool, error) {
	version, isDelta, err := SniffFrame(b)
	if err != nil {
		return nil, false, err
	}
	// Whole trees and delta frames must never be confused: a fold applied
	// to a whole tree (or a whole-tree merge fed XOR labels) silently
	// corrupts task sets, so the expectation is checked against the magic.
	if isDelta != delta {
		if delta {
			return nil, false, errors.New("trace: expected delta frame, got whole tree")
		}
		return nil, false, errors.New("trace: expected whole tree, got delta frame")
	}
	if len(b) < 8 {
		return nil, false, errors.New("trace: truncated header")
	}
	if !alias {
		// Label words can total at most len(b)/8; telling the arena up
		// front lets a fresh (one-shot) arena allocate to fit rather than
		// a default chunk, and costs a long-lived arena nothing once its
		// slabs cover the working set. An aliasing decode skips the hint:
		// most labels will view b, not the arena. (A square fused remap
		// preserves label width, so the bound holds there too.)
		arena.Grow(len(b) / 8)
	}
	d := treeDecoder{
		b:        b,
		pos:      8,
		numTasks: int(binary.LittleEndian.Uint32(b[4:8])),
		version:  version,
		names:    names,
		arena:    arena,
		batch:    batch,
		codec:    codec,
		alias:    alias,
		remap:    remap,
		delta:    delta,
	}
	if remap != nil && d.numTasks != remap.SourceLen() {
		return nil, false, fmt.Errorf("trace: remap has %d source bits for tree width %d", remap.SourceLen(), d.numTasks)
	}
	root, err := d.node(0)
	if err != nil {
		return nil, false, err
	}
	if d.pos != len(b) {
		return nil, false, fmt.Errorf("trace: %d trailing bytes", len(b)-d.pos)
	}
	var t *Tree
	if codec != nil {
		t = codec.getTree()
	} else {
		t = &Tree{}
	}
	t.NumTasks, t.Root = d.numTasks, root
	if remap != nil {
		t.NumTasks = remap.Width()
	}
	return t, d.aliased, nil
}

// pad consumes the zero bytes advancing the cursor to the next 8-byte
// boundary of the tree encoding, rejecting nonzero padding so the v2
// decode admits only canonical input.
func (d *treeDecoder) pad() error {
	p := pad8(d.pos)
	if len(d.b)-d.pos < p {
		return errors.New("trace: truncated padding")
	}
	for ; p > 0; p-- {
		if d.b[d.pos] != 0 {
			return errors.New("trace: nonzero padding byte")
		}
		d.pos++
	}
	return nil
}

func (d *treeDecoder) node(depth int) (*Node, error) {
	if depth > maxDecodeDepth {
		return nil, errors.New("trace: node nesting too deep")
	}
	b := d.b
	if len(b)-d.pos < 2 {
		return nil, errors.New("trace: truncated node header")
	}
	nameLen := int(binary.LittleEndian.Uint16(b[d.pos:]))
	d.pos += 2
	if len(b)-d.pos < nameLen {
		return nil, errors.New("trace: truncated node name")
	}
	name := d.names.intern(b[d.pos : d.pos+nameLen])
	d.pos += nameLen
	if d.version >= WireV2 {
		if err := d.pad(); err != nil {
			return nil, err
		}
	}
	// Label: in fused-remap mode the wire words scatter straight through
	// the permutation into arena storage; in aliasing mode the words view
	// the wire buffer directly when the host and this label's alignment
	// allow, and copy into the arena otherwise — byte-identical value
	// either way. The codec's alias hit/miss counters record which path
	// each label took, so a label that fails the alignment check is never
	// indistinguishable from an aliased one. Under v3 the same three paths
	// dispatch on the label's container kind; only the aliasing path may
	// keep the compressed representation (as a frozen *bitvec.Set view of
	// the pinned buffer) — the copying and remap-fused paths materialize
	// dense, so mutable consumers never meet a compressed label.
	var label bitvec.Label
	var used int
	var err error
	if d.version == WireV3 {
		switch {
		case d.remap != nil:
			label, used, err = d.arena.RemapLabel3(b[d.pos:], d.remap)
		case d.alias:
			var aliased bool
			label, used, aliased, err = d.arena.AliasLabel3(b[d.pos:])
			if err == nil && d.codec != nil {
				if aliased {
					d.codec.aliasHits++
				} else {
					d.codec.aliasMisses++
				}
			}
			d.aliased = d.aliased || aliased
		default:
			label, used, err = d.arena.UnmarshalLabel3(b[d.pos:])
		}
		if err == nil && d.codec != nil {
			d.codec.labelStats.note(b[d.pos+4], int64(used))
		}
	} else {
		switch {
		case d.remap != nil:
			label, used, err = d.arena.RemapBinary(b[d.pos:], d.remap)
		case d.alias:
			var aliased bool
			label, used, aliased, err = d.arena.AliasBinary(b[d.pos:])
			if err == nil && d.codec != nil {
				if aliased {
					d.codec.aliasHits++
				} else {
					d.codec.aliasMisses++
				}
			}
			d.aliased = d.aliased || aliased
		default:
			label, used, err = d.arena.UnmarshalBinary(b[d.pos:])
		}
	}
	if err != nil {
		return nil, err
	}
	d.pos += used
	if d.remap == nil && label.Len() != d.numTasks {
		return nil, fmt.Errorf("trace: label width %d != tree width %d", label.Len(), d.numTasks)
	}
	if len(b)-d.pos < 4 {
		return nil, errors.New("trace: truncated child count")
	}
	nc := int(binary.LittleEndian.Uint32(b[d.pos:]))
	d.pos += 4
	if d.version >= WireV2 {
		if err := d.pad(); err != nil {
			return nil, err
		}
	}
	if nc > len(b)-d.pos { // each child needs ≥1 byte; cheap sanity bound
		return nil, fmt.Errorf("trace: impossible child count %d", nc)
	}
	// Delta canonical form: a non-root node with an empty XOR label exists
	// only to route the path to changed descendants, so it must have
	// children; an empty-XOR leaf contributes nothing and is rejected (the
	// root is exempt — a root-only empty frame means "nothing changed").
	if d.delta && depth > 0 && nc == 0 && label.Empty() {
		return nil, errors.New("trace: non-canonical delta frame (empty-XOR leaf)")
	}
	var n *Node
	if d.codec != nil {
		n = d.codec.getNode(Frame{Function: name}, label)
	} else {
		n = d.batch.get(Frame{Function: name}, label)
	}
	if nc > 0 && cap(n.Children) < nc {
		n.Children = make([]*Node, 0, nc)
	}
	prev := ""
	for i := 0; i < nc; i++ {
		c, err := d.node(depth + 1)
		if err != nil {
			return nil, err
		}
		if i > 0 && c.Frame.Function <= prev {
			return nil, errors.New("trace: children not strictly sorted")
		}
		prev = c.Frame.Function
		n.Children = append(n.Children, c)
	}
	return n, nil
}
