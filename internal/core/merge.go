package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stat/internal/bitvec"
	"stat/internal/proto"
	"stat/internal/tbon"
	"stat/internal/telemetry"
	"stat/internal/trace"
)

// mergeScratch is the per-invocation state a filter worker borrows for
// one merge-kernel call: a wire codec (arena, intern table, node and tree
// free lists) plus every slice the call needs, kept warm across
// invocations. A scratch leaves the pool only for the duration of one
// call and returns with no live trees, so at steady state the whole
// decode→merge→encode cycle runs without a single heap allocation.
type mergeScratch struct {
	codec    *trace.Codec
	flat     []*trace.Tree   // all decoded trees, in child order
	lists    [][]*trace.Tree // per-child views into flat
	parts    []*trace.Tree   // parallel trees handed to one MergeConcat
	out      []*trace.Tree   // merged trees, in tree-index order
	telemBuf []byte          // encoded telemetry frame scratch
}

var scratchPool = sync.Pool{New: func() any {
	return &mergeScratch{codec: trace.NewCodec()}
}}

// outBufs recycles payload buffers across the whole reduction: filter
// outputs and (since the leaves went leased) the daemons' gather payloads
// alike. A buffer's consumer — the parent's filter, or the front end —
// releases its lease and the free hook brings the buffer back here, so
// every encode on the path writes into recycled storage. Capacity-matched
// reuse (tbon.BufferPool) keeps the pool stable even though payloads grow
// toward the root.
var outBufs = tbon.NewBufferPool(32)

// recycleOutBuf is the lease free hook for pooled payloads; a bound method
// value computed once so minting a lease captures nothing.
var recycleOutBuf = outBufs.Put

// mintPacket finishes a data-stream packet encoded in place behind a
// reserved header in an outBufs buffer: it writes the header for typ at
// version and hands the buffer onward in a lease whose release recycles
// it. Leaf daemons, MergeTrees' leaves and every filter output mint their
// packets here.
func mintPacket(packet []byte, version uint8, typ proto.MsgType) *tbon.Lease {
	proto.PutHeaderV(packet, version, proto.DataStream, typ, len(packet)-proto.HeaderSize)
	return tbon.NewLease(packet, recycleOutBuf)
}

// Tree-list (MsgResult/MsgDelta body) framing:
//
//	u8 count + 7 zero bytes, then per tree: u32 len + 4 zero bytes,
//	tree (a v2 or v3 encoding — itself a multiple of 8 bytes)
//
// The framing keeps every tree start at a multiple of 8 from the body
// start; with the body placed behind the 16-byte packet header in an
// 8-aligned buffer, every tree — and so every label payload — lands
// word-aligned in memory, which is what the zero-copy decode's 100%
// alias rate rests on.

// bodyFrameInfo sniffs a tree-list body's wire version and whether it
// carries delta frames (MsgDelta bodies) or whole trees. The two kinds
// share the framing byte-for-byte; only the per-tree magic differs.
func bodyFrameInfo(b []byte) (version uint8, delta bool, err error) {
	if len(b) == 8 && b[0] == 0 {
		return trace.WireV2, false, nil
	}
	if len(b) >= 16+4 {
		if v, d, err := trace.SniffFrame(b[16:]); err == nil && v >= trace.WireV2 {
			return v, d, nil
		}
	}
	return 0, false, errors.New("core: unrecognized tree payload framing")
}

// encodedTreesSize reports the exact encodeFramesInto output size for the
// given version without encoding.
func encodedTreesSize(version uint8, trees []*trace.Tree) int {
	size := 8
	for _, t := range trees {
		size += 8 + t.SerializedSizeV(version)
	}
	return size
}

// encodeFramesInto appends the encoding of a list of prefix trees under
// the given wire version — count-prefixed and length-framed, see the
// framing note above; the body of a MsgResult packet, whose gathers carry
// two trees (2D then 3D) — to dst (which may be nil or a recycled buffer)
// and returns the result. The destination is grown to
// the exact encoded size once and every tree is appended in place — with
// a dst of sufficient capacity the encode allocates nothing. With delta
// set the trees are encoded as delta frames ("STD" magics, XOR labels —
// the body of a MsgDelta packet) under the identical framing.
func encodeFramesInto(dst []byte, version uint8, delta bool, trees ...*trace.Tree) ([]byte, error) {
	if len(trees) > 255 {
		return nil, fmt.Errorf("core: %d trees exceed payload count limit", len(trees))
	}
	size := encodedTreesSize(version, trees)
	base := len(dst)
	if cap(dst)-base < size {
		grown := make([]byte, base, base+size)
		copy(grown, dst)
		dst = grown
	}
	out := append(dst, byte(len(trees)), 0, 0, 0, 0, 0, 0, 0)
	for _, t := range trees {
		lenPos := len(out)
		out = append(out, 0, 0, 0, 0, 0, 0, 0, 0)
		treePos := len(out)
		var err error
		if delta {
			out, err = t.AppendBinaryDeltaV(out, version)
		} else {
			out, err = t.AppendBinaryV(out, version)
		}
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(out[lenPos:], uint32(len(out)-treePos))
	}
	return out, nil
}

// decodeTrees parses an encodeFramesInto body, appending its trees to
// dst, each decoded by trace.Decode under o: owned trees with the zero
// options (long-lived results), the front end's rank remap fused in with
// o.Remap, or the filter hot path's codec decode — zero-copy with o.Pin
// (the leased wire packet), each aliasing tree pinning the lease. o.Delta
// selects delta-frame bodies: every frame must then carry a delta magic,
// and vice versa — mixing kinds in one body is a framing error. On error,
// any trees decoded by this call are released and dst's original prefix
// is returned.
func decodeTrees(dst []*trace.Tree, b []byte, o trace.DecodeOpts) ([]*trace.Tree, error) {
	base := len(dst)
	version, bodyDelta, err := bodyFrameInfo(b)
	if err != nil {
		return dst, err
	}
	if bodyDelta != o.Delta {
		if o.Delta {
			return dst, errors.New("core: expected delta-frame payload, got whole trees")
		}
		return dst, errors.New("core: delta frames in a whole-tree payload")
	}
	count := int(b[0])
	for _, p := range b[1:8] {
		if p != 0 {
			return dst, errors.New("core: nonzero tree payload padding")
		}
	}
	b = b[8:]
	for i := 0; i < count; i++ {
		if len(b) < 8 {
			return releaseDecoded(dst, base, errors.New("core: truncated tree frame"))
		}
		n := int(binary.LittleEndian.Uint32(b))
		for _, p := range b[4:8] {
			if p != 0 {
				return releaseDecoded(dst, base, errors.New("core: nonzero tree frame padding"))
			}
		}
		b = b[8:]
		if n < 0 || len(b) < n {
			return releaseDecoded(dst, base, errors.New("core: truncated tree body"))
		}
		// The framing and the trees it carries must agree on the version
		// and the frame kind: our encoders never mix them, and admitting a
		// mix would break the decode∘encode identity the fuzz harness pins.
		if tv, td, err := trace.SniffFrame(b[:n]); err != nil {
			return releaseDecoded(dst, base, err)
		} else if tv != version {
			return releaseDecoded(dst, base, fmt.Errorf("core: v%d tree inside v%d framing", tv, version))
		} else if td != o.Delta {
			return releaseDecoded(dst, base, errors.New("core: mixed frame kinds in one tree payload"))
		}
		t, err := trace.Decode(b[:n], o)
		if err != nil {
			return releaseDecoded(dst, base, err)
		}
		dst = append(dst, t)
		b = b[n:]
	}
	if len(b) != 0 {
		return releaseDecoded(dst, base, fmt.Errorf("core: %d trailing bytes after trees", len(b)))
	}
	return dst, nil
}

// merger is the state the gather's result filter reads: the task-set
// representation, the job's task layout, the coverage cache of the
// fault-tolerant merge, and the pooled codecs' decode counters. A Tool
// keeps one for its whole life; MergeTrees builds one per call, so the
// emulated STATBench sweeps reduce through the same filter a session
// ships.
type merger struct {
	mode    BitVecMode
	tasks   int
	taskMap [][]int // per daemon: global ranks in local order

	// aliasHits / aliasMisses aggregate the pooled codecs' zero-copy
	// decode counters across a merge phase's filter workers (hence
	// atomic); runMergePhase resets them and copies the totals into the
	// Result.
	aliasHits   atomic.Int64
	aliasMisses atomic.Int64
	// labelStats aggregates the pooled codecs' per-container-kind v3 label
	// decode counters across a merge phase's filter workers; a struct of
	// six counters, so a mutex instead of atomics. runMergePhase resets it
	// and copies the totals into the Result.
	labelStatsMu sync.Mutex
	labelStats   trace.LabelStats
	// cov caches per-node subtree rank coverage for the fault-tolerant
	// merge's liveness accounting (see coverage); populated lazily, only
	// when a gather actually degrades. Guarded by covMu because the
	// reduction runs filters from many worker goroutines.
	covMu sync.Mutex
	cov   map[int]*bitvec.Vector
}

// maxWireVersion is the highest data-stream wire version a process
// advertises: the build's maximum, unless pinned names one explicitly
// (Options.WireVersion). Original-representation processes advertise at
// most v2: the original mode models the paper's pre-optimization tool,
// whose defining cost is full-job-width dense labels on the wire (the
// Figure 5/7 blowup) — the v3 adaptive containers would compress away
// exactly the behaviour the mode exists to reproduce. Pinning 3 still
// overrides.
func maxWireVersion(mode BitVecMode, pinned uint8) uint8 {
	if pinned != 0 {
		return pinned
	}
	if mode == Original {
		return trace.WireV2
	}
	return proto.MaxVersion
}

// rankRemapper compiles the concatenated-order → MPI-rank permutation
// from the task map: the hierarchical front end's final remap, shared by
// the merge phase, the stream and the progress check so they can never
// diverge on rank-order semantics.
func (m *merger) rankRemapper() (*bitvec.Remapper, error) {
	perm := make([]int, 0, m.tasks)
	for _, ranks := range m.taskMap {
		perm = append(perm, ranks...)
	}
	return bitvec.NewRemapper(perm, m.tasks)
}

// decodeResult decodes a gathered whole-tree body into owned trees in MPI
// rank order. A hierarchical body decodes through the compiled rank-order
// permutation: each label materializes from the wire already in rank
// order — one pass over each word, no separate remap sweep over the
// decoded trees. A degraded gather concatenated only the surviving
// subtrees, so its permutation lists only the surviving daemons' ranks
// (rankRemapperLive).
func (m *merger) decodeResult(payload []byte, live *bitvec.Vector) ([]*trace.Tree, error) {
	var o trace.DecodeOpts
	if m.mode == Hierarchical {
		var err error
		if live == nil {
			o.Remap, err = m.rankRemapper()
		} else {
			o.Remap, err = m.rankRemapperLive(live)
		}
		if err != nil {
			return nil, err
		}
	}
	return decodeTrees(nil, payload, o)
}

// releaseDecoded unwinds a partial decodeTrees, releasing the
// trees appended past base.
func releaseDecoded(dst []*trace.Tree, base int, err error) ([]*trace.Tree, error) {
	for _, t := range dst[base:] {
		t.Release()
	}
	return dst[:base], err
}

// treeMerger returns resultFilter's merge kernel for whole trees: decode
// every child's encodeTrees body, merge tree i of every child into output
// tree i under the configured representation, and encode the merged list
// — in the requested wire version — into a pooled buffer, leaving
// prefixLen bytes unwritten at the front for the caller's framing (zero
// for a bare body, the version's packet header size for a result packet
// — written in place, so the payload is never copied into a frame). The
// returned buffer belongs to outBufs; callers hand it onward inside a
// lease whose free hook is recycleOutBuf.
//
// With a non-nil tf (the caller's folded telemetry frame — child
// sections already stripped and folded by resultFilter), the kernel
// observes its own merge span and output bytes into tf and appends the
// encoded frame as a telemetry section trailer after the trees. The
// section's bytes are reserved when the output buffer is drawn, so the
// append never grows the buffer and the instrumented cycle stays
// allocation-free. Child bodies handed in must already be bare tree
// bodies — the decode rejects trailing bytes by design.
//
// This is the showcase of the leased-buffer contract. In hierarchical
// mode the decode aliases label words straight into the child packet
// buffers (retaining each lease until the decoded tree is released), the
// merge routes output labels through the codec's arena, and the encode
// writes into a recycled buffer — so a warm steady-state cycle touches
// the heap zero times and copies label words exactly once, from input
// packet to output packet. On a v2 (STR2) stream every label passes the
// alignment check, so the copy count is exactly zero on the decode side;
// the codec's alias hit/miss counters are folded into the merger's totals
// so the realized rate is observable per merge phase. Original mode
// merges by in-place union (or XOR) into child 0's trees, so only that
// accumulator must own its labels: child 0 takes the copying decode and
// every later child aliases, since the union only reads its source.
// Everything decoded or merged dies before the merger returns: nodes and
// tree headers return to the codec's free lists, arena storage recycles,
// and the input leases drop back to the engine's reference.
func (m *merger) treeMerger() mergeFunc {
	return m.frameMerger(false)
}

// mergeFunc is the merge-kernel shape shared by the tree and delta
// mergers: merge the child bodies into a pooled buffer after prefixLen
// reserved bytes, emit at the given wire version, and — when tf is
// non-nil — append tf as the body's telemetry section.
type mergeFunc = func(children []*tbon.Lease, prefixLen int, version uint8, tf *telemetry.Frame) ([]byte, error)

// deltaMerger is the merge kernel for MsgDelta bodies: identical cycle,
// identical framing, but every frame is a delta frame. Hierarchical mode
// needs no new merge at all — XOR labels concatenate exactly like task
// sets (disjoint task spaces), and a concat of canonical delta frames is
// canonical: a node survives iff some part included it, and a part that
// included it for descent alone contributes an empty slice to a label
// whose other slices may be empty too, in which case the node had
// included children. Original mode combines matching nodes by XOR
// (trace.MergeXor) — the operation that commutes with the downstream
// fold — instead of union.
func (m *merger) deltaMerger() mergeFunc {
	return m.frameMerger(true)
}

func (m *merger) frameMerger(delta bool) mergeFunc {
	hierarchical := m.mode != Original
	return func(children []*tbon.Lease, prefixLen int, version uint8, tf *telemetry.Frame) (out []byte, err error) {
		if len(children) == 0 {
			return nil, errors.New("core: filter with no inputs")
		}
		var mergeStart time.Time
		if tf != nil {
			mergeStart = time.Now()
		}
		s := scratchPool.Get().(*mergeScratch)
		s.flat, s.lists, s.out = s.flat[:0], s.lists[:0], s.out[:0]
		hits0, misses0 := s.codec.AliasStats()
		labels0 := s.codec.LabelStats()
		defer func() {
			// All decoded inputs die here. In Original mode the merged
			// trees alias lists[*][ti] entries (the union folds in
			// place), so the sweep over flat covers them; hierarchical
			// outputs are fresh codec trees accumulated in s.out and
			// release separately. Once nothing borrows the codec's arena
			// the scratch goes back in the pool; a scratch whose codec
			// still has live trees (an error path bailed early) is
			// simply dropped.
			for _, tr := range s.flat {
				tr.Release()
			}
			if hierarchical {
				for _, tr := range s.out {
					tr.Release()
				}
			}
			hits, misses := s.codec.AliasStats()
			m.aliasHits.Add(hits - hits0)
			m.aliasMisses.Add(misses - misses0)
			if delta := s.codec.LabelStats().Sub(labels0); delta.Labels() != 0 {
				m.labelStatsMu.Lock()
				m.labelStats.Add(delta)
				m.labelStatsMu.Unlock()
			}
			if s.codec.Live() == 0 {
				scratchPool.Put(s)
			}
		}()
		for i, c := range children {
			start := len(s.flat)
			// Original mode folds children 1..k-1 into child 0's trees in
			// place, so child 0 alone decodes by copy.
			o := trace.DecodeOpts{Codec: s.codec, Pin: c, Delta: delta}
			if !hierarchical && i == 0 {
				o.Pin = nil
			}
			s.flat, err = decodeTrees(s.flat, c.Bytes(), o)
			if err != nil {
				return nil, err
			}
			s.lists = append(s.lists, s.flat[start:len(s.flat):len(s.flat)])
		}
		for i := 1; i < len(s.lists); i++ {
			if len(s.lists[i]) != len(s.lists[0]) {
				return nil, fmt.Errorf("core: child %d carries %d trees, child 0 carries %d",
					i, len(s.lists[i]), len(s.lists[0]))
			}
		}
		for ti := range s.lists[0] {
			if !hierarchical {
				acc := s.lists[0][ti]
				for ci := 1; ci < len(s.lists); ci++ {
					if delta {
						err = trace.MergeXor(acc, s.lists[ci][ti])
					} else {
						err = trace.MergeUnion(acc, s.lists[ci][ti])
					}
					if err != nil {
						return nil, err
					}
				}
				s.out = append(s.out, acc)
			} else {
				if cap(s.parts) < len(s.lists) {
					s.parts = make([]*trace.Tree, len(s.lists))
				}
				parts := s.parts[:len(s.lists)]
				for ci := range s.lists {
					parts[ci] = s.lists[ci][ti]
				}
				s.out = append(s.out, s.codec.MergeConcat(parts...))
			}
		}
		// Size the output exactly, draw a capacity-matched recycled
		// buffer, and encode after the caller's reserved prefix; the
		// in-place append can never grow (and therefore never strands a
		// pooled buffer). Telemetry section bytes are reserved alongside.
		size := encodedTreesSize(version, s.out)
		extra := 0
		if tf != nil {
			extra = proto.TelemetrySectionLen(telemetry.EncodedFrameSize)
		}
		buf := outBufs.Get(prefixLen + size + extra)
		body, err := encodeFramesInto(buf[:prefixLen], version, delta, s.out...)
		if err != nil {
			outBufs.Put(buf)
			return nil, err
		}
		if tf != nil {
			tf.MergedBytes += int64(len(body) - prefixLen)
			tf.Observe(telemetry.SpanMerge, time.Since(mergeStart).Nanoseconds())
			s.telemBuf = tf.AppendTo(s.telemBuf[:0])
			body = proto.AppendTelemetrySection(body, s.telemBuf)
		}
		return body, nil
	}
}

// MergeTrees reduces one prefix tree per daemon through the gather
// pipeline a tool session ships: each leaf tree is encoded into a pooled
// MsgResult packet at the representation's wire version (maxWireVersion),
// the overlay reduces the packets under ropts with the session's result
// filter — so ropts' Partial, Faults and SubtreeTimeout degrade the merge
// exactly as a fault-tolerant session's gather does — and the root packet
// decodes with the hierarchical rank remap fused in. taskMap lists each
// daemon's global ranks in local order, one entry per overlay leaf; tasks
// is the job width. leaf(i) builds daemon i's tree — job-width labels
// indexed by global rank in Original mode, len(taskMap[i]) local labels in
// Hierarchical mode — and MergeTrees releases it once encoded. The merged
// tree is in MPI rank order; live is the set of ranks it accounts for,
// nil when every subtree arrived.
func MergeTrees(net *tbon.Network, ropts tbon.ReduceOptions, mode BitVecMode, taskMap [][]int, tasks int,
	leaf func(int) (*trace.Tree, error)) (*trace.Tree, *bitvec.Vector, *tbon.Stats, error) {
	if n := len(net.Topology().Leaves); len(taskMap) != n {
		return nil, nil, nil, fmt.Errorf("core: task map lists %d daemons, overlay has %d leaves", len(taskMap), n)
	}
	m := &merger{mode: mode, tasks: tasks, taskMap: taskMap}
	version := maxWireVersion(mode, 0)
	hdr := proto.HeaderSize
	leafPacket := func(i int) (*tbon.Lease, error) {
		t, err := leaf(i)
		if err != nil {
			return nil, err
		}
		trees := [1]*trace.Tree{t}
		buf := outBufs.Get(hdr + encodedTreesSize(version, trees[:]))
		packet, err := encodeFramesInto(buf[:hdr], version, false, trees[:]...)
		t.Release()
		if err != nil {
			outBufs.Put(buf)
			return nil, err
		}
		return mintPacket(packet, version, proto.MsgResult), nil
	}
	out, stats, err := net.ReduceNodeLeasedWith(ropts, leafPacket, m.resultFilter(false))
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := unwrapRoot(out, version, false, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	trees, err := m.decodeResult(g.payload, g.live)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(trees) != 1 {
		releaseDecoded(trees, 0, nil)
		return nil, nil, nil, fmt.Errorf("core: merge returned %d trees, want 1", len(trees))
	}
	return trees[0], g.live, stats, nil
}

// runMergePhase drives the protocol session (attach — which negotiates
// the wire version — then sample → gather → detach), computes the modeled
// merge time from the gather's traffic, and (in hierarchical mode) remaps
// the front end's result into MPI rank order, fused into the final decode.
func (t *Tool) runMergePhase(res *Result) error {
	// Environment failure: one tool process cannot hold more child
	// connections than its node's memory allows (the 1-deep BG/L failure
	// at 256 daemons in Figure 5).
	if f := t.topo.MaxFanout(); t.mach.MaxFanIn > 0 && f > t.mach.MaxFanIn {
		res.MergeErr = fmt.Errorf("core: merge failed: fan-in %d exceeds %s per-process limit %d",
			f, t.mach.Name, t.mach.MaxFanIn)
		return nil
	}

	m := t.merge
	m.aliasHits.Store(0)
	m.aliasMisses.Store(0)
	m.labelStatsMu.Lock()
	m.labelStats = trace.LabelStats{}
	m.labelStatsMu.Unlock()
	s := t.newSession()
	if err := s.attach(); err != nil {
		return err
	}
	if err := s.sample(t.opts.Samples, t.opts.ThreadsPerTask); err != nil {
		return err
	}
	// A streaming session asks for deltas from round 0 so every daemon's
	// keyed walker starts accumulating immediately; the first keyed round
	// has no previous seal, so round 0 still arrives as whole trees and
	// deltas flow from round 1 (daemon.sampleTrees).
	g, err := s.gather(proto.TreeBoth, false, t.streamWantsDelta())
	if err != nil {
		return err
	}
	if g.delta {
		return errors.New("core: first gather round answered with delta frames")
	}

	res.MergeStats = g.stats
	res.WireVersion = g.version
	res.Liveness = g.live
	if g.live != nil {
		res.MissingRanks = t.opts.Tasks - g.live.Count()
		if t.telem != nil {
			res.FlightDumps = t.flightDumps(g.live)
		}
	}
	if s.lastFrameOK {
		frame := s.lastFrame
		res.Telemetry = &frame
	}
	res.AliasDecodeHits = m.aliasHits.Load()
	res.AliasDecodeMisses = m.aliasMisses.Load()
	m.labelStatsMu.Lock()
	res.LabelStats = m.labelStats
	m.labelStatsMu.Unlock()
	for _, leafNode := range t.topo.Leaves {
		if b := g.stats.NodeOutBytes[leafNode.ID]; b > res.MaxLeafPayloadBytes {
			res.MaxLeafPayloadBytes = b
		}
	}
	res.FrontEndInBytes = g.stats.NodeInBytes[t.topo.Root.ID]

	model := tbon.TimingModel{Link: t.mach.TreeLink, CPU: t.mach.MergeCPU, ConstSec: t.mach.MergeConstSec}
	res.Times.Merge = model.ReduceTime(t.topo, g.stats, nil)

	trees, err := m.decodeResult(g.payload, g.live)
	if err != nil {
		return err
	}
	if t.opts.BitVec == Hierarchical {
		res.Times.Remap = t.mach.RemapPerTaskSec * float64(t.opts.Tasks)
	}
	if len(trees) != 2 {
		return fmt.Errorf("core: gather returned %d trees, want 2", len(trees))
	}
	res.Tree2D, res.Tree3D = trees[0], trees[1]

	// Streamed rounds run inside the same attach: the session (and every
	// daemon's keyed walker chain) stays live until the last round folds.
	if t.opts.Stream > 0 {
		if err := t.runStreamPhase(res, s); err != nil {
			return err
		}
	}
	if err := s.detach(); err != nil {
		return err
	}
	// After the streamed rounds, so the counters cover every round of the
	// session.
	res.SampleStats = t.sampler.Stats()

	// Steady-state round model: repeated gathers of a long session walk
	// all-warm (Times.Sample already charged the cold round).
	res.Times.SampleSteady = t.steadyWalkSec()
	return nil
}
