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

// mergeScratch is a pooled wire codec (arena, intern table, node and
// tree free lists) plus the slices a merge needs, kept warm across
// merges: a merge borrows one to decode its children, and an accumulator
// keeps one for its live trees. A scratch returns to the pool only with
// no live trees, so at steady state the fold allocates nothing.
type mergeScratch struct {
	codec *trace.Codec
	flat  []*trace.Tree   // decoded child trees, in child order
	lists [][]*trace.Tree // per-child views into flat
	parts []*trace.Tree   // parallel trees handed to one MergeConcat
	out   []*trace.Tree   // an accumulator's live trees, by tree index
}

var scratchPool = sync.Pool{New: func() any {
	return &mergeScratch{codec: trace.NewCodec()}
}}

// putScratch pools s, unless its codec still has live trees (an error
// path bailed early): then s is simply dropped.
func putScratch(s *mergeScratch) {
	if s.codec.Live() == 0 {
		scratchPool.Put(s)
	}
}

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

// foldAcc is one interior node's accumulator (see resultFold): its
// merged trees so far, kept decoded between Fold calls and encoded once,
// by Emit, plus the running minimum wire version, the frame kind, the
// liveness of partial children and the telemetry aggregate. Pooled, so a
// warm node allocates nothing.
type foldAcc struct {
	acc *mergeScratch // the live trees, in acc.out; nil before the first merge
	// in holds the child bodies added since the last merge, each viewing
	// its pin: a child lease valid only for the current Fold call.
	in      []pendingBody
	started bool
	version uint8
	delta   bool
	live    *bitvec.Vector // partial children's liveness, nil until one arrives
	// partials lists the partial children's positions.
	partials []int
	agg      telemetry.Frame
	mergeNs  int64 // decode and merge time, for the node's merge span
	telemBuf []byte
}

type pendingBody struct {
	b   []byte
	pin *tbon.Lease
}

var foldAccPool = sync.Pool{New: func() any { return new(foldAcc) }}

// add queues one child body for the next merge. Children whose frame
// kinds differ — delta frames against whole trees or partial results —
// abort the round with errMixedDeltaRound: they occupy disjoint task
// slices and there is nothing sound to combine them into. The streaming
// front end recovers by re-gathering the round whole, which is
// deterministic because sampling re-runs at the same base.
func (a *foldAcc) add(body []byte, pin *tbon.Lease, version uint8, delta bool) error {
	switch {
	case !a.started:
		a.started, a.version, a.delta = true, version, delta
	case delta != a.delta:
		return errMixedDeltaRound
	}
	a.version = min(a.version, version)
	a.in = append(a.in, pendingBody{body, pin})
	return nil
}

// merge decodes the added bodies — every one by alias, pinning its child
// lease — folds them into the live trees, and releases them, so no child
// payload outlives its Fold call. Original mode unions (XORs, for delta
// frames: the operation that commutes with the downstream fold) each
// child tree in place into the accumulator's tree of the same index,
// which the first merge creates empty. Hierarchical mode runs one
// MergeConcat of the live trees and the children per tree index (XOR
// labels concatenate like task sets) in the decoding scratch, which then
// holds the new live trees; the old ones are released.
func (m *merger) merge(a *foldAcc) (err error) {
	s := scratchPool.Get().(*mergeScratch)
	hits0, misses0 := s.codec.AliasStats()
	labels0 := s.codec.LabelStats()
	want := -1
	if a.acc != nil {
		want = len(a.acc.out)
	}
	for _, p := range a.in {
		start := len(s.flat)
		if s.flat, err = decodeTrees(s.flat, p.b, trace.DecodeOpts{Codec: s.codec, Pin: p.pin, Delta: a.delta}); err != nil {
			break
		}
		if n := len(s.flat) - start; want >= 0 && n != want {
			err = fmt.Errorf("core: child carries %d trees, the fold so far %d", n, want)
			break
		}
		want = len(s.flat) - start
		s.lists = append(s.lists, s.flat[start:len(s.flat):len(s.flat)])
	}
	if err == nil && len(s.lists) > 0 {
		if m.mode == Original {
			err = unionInto(a, s.lists)
		} else {
			concatInto(a, s)
		}
	}
	for _, tr := range s.flat {
		tr.Release()
	}
	clear(s.flat)
	clear(s.lists)
	s.flat, s.lists = s.flat[:0], s.lists[:0]
	hits, misses := s.codec.AliasStats()
	m.aliasHits.Add(hits - hits0)
	m.aliasMisses.Add(misses - misses0)
	if delta := s.codec.LabelStats().Sub(labels0); delta.Labels() != 0 {
		m.labelStatsMu.Lock()
		m.labelStats.Add(delta)
		m.labelStatsMu.Unlock()
	}
	if a.acc != s {
		putScratch(s)
	}
	return err
}

func unionInto(a *foldAcc, lists [][]*trace.Tree) error {
	if a.acc == nil {
		a.acc = scratchPool.Get().(*mergeScratch)
		for _, tr := range lists[0] {
			a.acc.out = append(a.acc.out, a.acc.codec.NewTree(tr.NumTasks))
		}
	}
	merge := trace.MergeUnion
	if a.delta {
		merge = trace.MergeXor
	}
	for _, list := range lists {
		for ti, tr := range list {
			if err := merge(a.acc.out[ti], tr); err != nil {
				return err
			}
		}
	}
	return nil
}

func concatInto(a *foldAcc, s *mergeScratch) {
	for ti := range s.lists[0] {
		parts := s.parts[:0]
		if a.acc != nil {
			parts = append(parts, a.acc.out[ti])
		}
		for _, list := range s.lists {
			parts = append(parts, list[ti])
		}
		s.out = append(s.out, s.codec.MergeConcat(parts...))
		clear(parts)
		s.parts = parts[:0]
	}
	releaseTrees(a.acc)
	a.acc = s
}

// releaseTrees releases an accumulator's live trees and pools its
// scratch; nil is a no-op.
func releaseTrees(s *mergeScratch) {
	if s == nil {
		return
	}
	for _, tr := range s.out {
		tr.Release()
	}
	clear(s.out)
	s.out = s.out[:0]
	putScratch(s)
}

// release drops an accumulator, emitted or not, into the pool.
func (a *foldAcc) release() {
	releaseTrees(a.acc)
	clear(a.in)
	*a = foldAcc{in: a.in[:0], partials: a.partials[:0], telemBuf: a.telemBuf}
	foldAccPool.Put(a)
}

// encode writes the live trees at the accumulator's version and frame
// kind into a pooled buffer, after prefixLen bytes left for the caller's
// framing (the packet header, and a partial result's liveness prefix) so
// the payload is never copied into a frame. The buffer is drawn
// capacity-matched at the exact size, so the in-place append never grows
// it. With telem set the encode closes the node's merge span, counts the
// body into MergedBytes, and appends the aggregate as the telemetry
// section, whose bytes were reserved with the buffer.
func (a *foldAcc) encode(prefixLen int, telem bool) ([]byte, error) {
	start := time.Now()
	extra := 0
	if telem {
		extra = proto.TelemetrySectionLen(telemetry.EncodedFrameSize)
	}
	buf := outBufs.Get(prefixLen + encodedTreesSize(a.version, a.acc.out) + extra)
	body, err := encodeFramesInto(buf[:prefixLen], a.version, a.delta, a.acc.out...)
	if err != nil {
		outBufs.Put(buf)
		return nil, err
	}
	if telem {
		a.agg.MergedBytes += int64(len(body) - prefixLen)
		a.agg.Observe(telemetry.SpanMerge, a.mergeNs+time.Since(start).Nanoseconds())
		a.telemBuf = a.agg.AppendTo(a.telemBuf[:0])
		body = proto.AppendTelemetrySection(body, a.telemBuf)
	}
	return body, nil
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
