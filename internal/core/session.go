package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"stat/internal/bitvec"
	"stat/internal/proto"
	"stat/internal/tbon"
	"stat/internal/telemetry"
)

// session drives one attach→sample→gather→detach cycle over the overlay,
// speaking the front-end↔daemon protocol: control commands broadcast down
// the tree, acknowledgements aggregate upward through an ack-merging
// filter, and the gather reply carries the merged prefix trees through
// the tree-merge filter. The attach exchange doubles as the wire-version
// handshake: the front end advertises the highest version it speaks, each
// daemon acks with the highest version both share, and the ack merge's
// minimum lands the session on the highest common version — which the
// data stream (gather payloads and result packets) then carries, checked
// against the negotiation when the result returns. The control stream
// itself always uses the baseline framing, so control packets never
// depend on the version still being negotiated.
type session struct {
	t       *Tool
	net     *tbon.Network
	daemons []*daemon
	// wireVersion is the negotiated data-stream version, set by attach.
	wireVersion uint8
	// telem reports whether this session's gathers carry telemetry
	// sections (Options.Telemetry). Set by attach.
	telem bool
	// lastFrame is the most recent gather's folded fleet telemetry
	// frame (valid when lastFrameOK): popped off the root packet before
	// tree decode, with the front end's reduce-wait aggregate merged in.
	lastFrame   telemetry.Frame
	lastFrameOK bool
}

func (t *Tool) newSession() *session {
	s := &session{t: t, net: tbon.New(t.topo)}
	s.daemons = make([]*daemon, t.daemons)
	for i := range s.daemons {
		s.daemons[i] = &daemon{leaf: i, tool: t, capVersion: t.opts.DaemonWireCaps[i]}
	}
	return s
}

// errMixedDeltaRound aborts a gather whose children mixed delta frames
// with whole trees (or partial results). The streaming front end matches
// it by message substring — reduction engines wrap filter errors — and
// recovers by re-gathering the round with delta off.
var errMixedDeltaRound = errors.New("core: mixed delta/whole-tree gather round")

// ackFilter merges MsgAck packets at every interior node. Acks are tiny
// and fully parsed during the call, so the plain-bytes adapter suffices:
// nothing outlives the child leases.
var ackFilter = tbon.BytesFilter(func(children [][]byte) ([]byte, error) {
	var total proto.Ack
	for _, c := range children {
		p, err := proto.Decode(c)
		if err != nil {
			return nil, err
		}
		if p.Type != proto.MsgAck {
			return nil, fmt.Errorf("core: expected ack, got %v", p.Type)
		}
		a, err := proto.DecodeAck(p.Payload)
		if err != nil {
			return nil, err
		}
		total = total.Merge(a)
	}
	out := proto.Packet{Stream: proto.ControlStream, Type: proto.MsgAck, Payload: total.Encode()}
	return out.Encode(), nil
})

// control broadcasts one command to every daemon and reduces their acks.
// It returns the merged acknowledgement, or an error unless every daemon
// acknowledged success.
func (s *session) control(typ proto.MsgType, body []byte) (proto.Ack, error) {
	cmd := proto.Packet{Stream: proto.ControlStream, Type: typ, Payload: body}
	delivered, _, err := s.net.Broadcast(cmd.Encode())
	if err != nil {
		return proto.Ack{}, err
	}
	leafData := func(leaf int) ([]byte, error) {
		p, err := proto.Decode(delivered[leaf])
		if err != nil {
			return nil, fmt.Errorf("core: daemon %d: %w", leaf, err)
		}
		ack := s.daemons[leaf].handleControl(p)
		reply := proto.Packet{Stream: proto.ControlStream, Type: proto.MsgAck, Payload: ack.Encode()}
		return reply.Encode(), nil
	}
	out, _, err := s.net.ReduceWith(s.t.opts.reduceOpts(), leafData, ackFilter)
	if err != nil {
		return proto.Ack{}, err
	}
	p, err := proto.Decode(out)
	if err != nil {
		return proto.Ack{}, err
	}
	ack, err := proto.DecodeAck(p.Payload)
	if err != nil {
		return proto.Ack{}, err
	}
	if ack.FirstError != "" {
		return ack, errors.New("core: " + ack.FirstError)
	}
	if int(ack.OK) != len(s.daemons) {
		return ack, fmt.Errorf("core: %v acknowledged by %d of %d daemons", typ, ack.OK, len(s.daemons))
	}
	return ack, nil
}

// attach runs the attach command and records the negotiated wire version:
// the minimum, over all daemons, of each daemon's highest common version
// with the front end. An ack without a version (a pre-handshake build)
// degrades the session to the baseline.
func (s *session) attach() error {
	req := proto.AttachRequest{MaxVersion: maxWireVersion(s.t.opts.BitVec, s.t.opts.WireVersion)}
	ack, err := s.control(proto.MsgAttach, req.Encode())
	if err != nil {
		return err
	}
	if ack.Version == 0 {
		return errors.New("core: attach acknowledged without a wire version")
	}
	s.wireVersion = ack.Version
	s.telem = s.t.telem != nil
	return nil
}

func (s *session) sample(samples, threads int) error {
	if samples > 0xFFFF || threads > 0xFFFF {
		return fmt.Errorf("core: sample parameters exceed protocol range")
	}
	req := proto.SampleRequest{Samples: uint16(samples), Threads: uint16(threads)}
	_, err := s.control(proto.MsgSample, req.Encode())
	return err
}

func (s *session) detach() error {
	_, err := s.control(proto.MsgDetach, nil)
	return err
}

// gathered is one gather round's unwrapped root packet.
type gathered struct {
	// payload is the merged tree-list body, with the telemetry section
	// and any partial-liveness prefix stripped.
	payload []byte
	// version is the wire version the body is encoded in.
	version uint8
	// delta marks a MsgDelta body — only possible when delta frames were
	// requested and every daemon qualified.
	delta bool
	// live is the set of ranks the body covers; nil when the gather
	// completed in full (the only outcome unless the reduction ran with
	// Partial set).
	live *bitvec.Vector
	// stats are the reduction's traffic counters, which the timing model
	// prices.
	stats *tbon.Stats
}

// gather broadcasts the gather command and runs the data-stream reduction
// whose filter performs the real prefix-tree merges, returning the root
// packet unwrapped (see gathered). detail selects function+offset frame
// granularity; delta invites daemons to answer with delta frames against
// their previous round (streaming sessions). Leaf payloads are minted by
// the daemons from the shared buffer pool behind leases
// (daemon.gatherPacket), so the zero-allocation payload cycle runs end to
// end: leaf encode → filter decode → merged encode, every buffer recycled
// through outBufs. The gather is the only reduction that runs under the
// fault-tolerance options (gatherReduceOpts): control acks stay
// fault-free.
func (s *session) gather(which proto.TreeKind, detail, delta bool) (gathered, error) {
	s.lastFrameOK = false
	req := proto.GatherRequest{Which: which, Detail: detail, Delta: delta, Telemetry: s.telem}
	cmd := proto.Packet{Stream: proto.DataStream, Type: proto.MsgGather, Payload: req.Encode()}
	delivered, _, err := s.net.Broadcast(cmd.Encode())
	if err != nil {
		return gathered{}, err
	}

	filter := s.t.merge.resultFilter(s.telem)
	leaf := func(leaf int) (*tbon.Lease, error) {
		p, err := proto.Decode(delivered[leaf])
		if err != nil {
			return nil, err
		}
		greq, err := proto.DecodeGatherRequest(p.Payload)
		if err != nil {
			return nil, err
		}
		return s.daemons[leaf].gatherPacket(greq)
	}

	ropts := s.t.opts.gatherReduceOpts()
	if s.telem {
		// Reduce-wait is the one span only the front-end process can see:
		// the engines report it per join, the tool aggregates it, and
		// takeWait below folds the round's total into the fleet frame.
		s.t.telem.resetWait()
		ropts.WaitObserver = s.t.telem.waitFn
	}
	out, stats, err := s.net.ReduceNodeLeasedWith(ropts, leaf, filter)
	if err != nil {
		return gathered{}, err
	}
	var frame *telemetry.Frame
	if s.telem {
		frame = &s.lastFrame
	}
	g, err := unwrapRoot(out, s.wireVersion, delta, frame)
	if err != nil {
		return gathered{}, err
	}
	if frame != nil {
		wait := s.t.telem.takeWait()
		s.lastFrame.Spans[telemetry.SpanReduceWait].Merge(&wait)
		s.lastFrameOK = true
		s.t.telem.publish(&s.lastFrame, s.t.sampler.Stats().SlotWaitNanos)
	}
	g.stats = stats
	return g, nil
}

// unwrapRoot checks and unwraps a gather reduction's root packet. It must
// be a MsgResult or MsgPartialResult (or MsgDelta, when delta frames were
// requested) carrying exactly the wire version the leaves were asked to
// encode: daemons encode at their handshake result and the filters
// propagate it, so a mismatch means a filter or daemon ignored the
// negotiation. With a non-nil frame, the packet must carry a telemetry
// section — daemons append unconditionally when asked and filters
// re-append the fold, so a bare body means one of them dropped it — which
// is popped (it is the outermost trailer) and decoded into frame. A
// partial result's liveness prefix is split off last. The returned stats
// are left for the caller to fill.
func unwrapRoot(out []byte, version uint8, delta bool, frame *telemetry.Frame) (gathered, error) {
	p, err := proto.Decode(out)
	if err != nil {
		return gathered{}, err
	}
	if p.Type != proto.MsgResult && p.Type != proto.MsgPartialResult &&
		!(delta && p.Type == proto.MsgDelta) {
		return gathered{}, fmt.Errorf("core: gather returned %v", p.Type)
	}
	if p.Version != version {
		return gathered{}, fmt.Errorf("core: result packet carries wire version %d, leaves were asked for %d", p.Version, version)
	}
	g := gathered{payload: p.Payload, version: p.Version, delta: p.Type == proto.MsgDelta}
	if frame != nil {
		tree, sect, err := proto.SplitTelemetrySection(g.payload)
		if err != nil {
			return gathered{}, err
		}
		if !telemetry.DecodeFrameInto(frame, sect) {
			return gathered{}, errors.New("core: malformed telemetry section on result packet")
		}
		g.payload = tree
	}
	if p.Type == proto.MsgPartialResult {
		lv, body, err := proto.SplitPartialPayload(g.payload)
		if err != nil {
			return gathered{}, err
		}
		if g.live, _, err = bitvec.UnmarshalBinary(lv); err != nil {
			return gathered{}, err
		}
		g.payload = body
	}
	return g, nil
}

// resultFilter merges MsgResult packets: unwrap, merge the carried trees
// under the configured representation, rewrap at the LOWEST wire version
// the children carry — uniform after negotiation in a homogeneous
// session, and the min-merge downgrade rule when per-daemon caps put a
// v2-capped daemon inside a v3 fleet (see Options.DaemonWireCaps: the
// session version is the minimum over daemons, and taking the minimum at
// every join is what makes the root packet land exactly there).
// proto.Decode aliases
// the packet body rather than copying it, so each body is handed to the
// tree merge as a sub-lease of the child packet: if the merge's zero-copy
// decode pins a body (its labels view the wire bytes), the pin holds the
// whole packet buffer alive through the sub-lease's parent reference. On
// the way out, the merger encodes the merged trees directly after a
// reserved frame header in the pooled output buffer, so the result packet
// is built without copying the payload.
//
// Under fault tolerance the filter has a second job: whenever its output
// cannot claim complete coverage — a child delivered a MsgPartialResult, or
// the engine's FilterCtx reports missing child subtrees — it switches to
// mergePartial, which computes the surviving-rank liveness set and emits a
// MsgPartialResult carrying it ahead of the tree body. The complete case
// below is byte-for-byte the fault-free filter, so fault-free runs (with or
// without Options.FaultTolerant) produce identical packets and keep the
// zero-allocation cycle.
//
// With telem set the filter also runs the telemetry fold: each child
// body arrives with the child subtree's frame as its outermost trailer,
// which is stripped (before the body sub-lease is taken, so the mergers
// see bare tree bytes) and folded into a pooled aggregate along with this
// filter's own fold span, fan-in, and lease high-water marks. The merger
// re-appends the aggregate to its output, keeping the invariant that
// every packet on a telemetry session carries exactly one section.
// bodySlicePool recycles the per-filter-call slice of child body
// sub-leases; fan-in varies per node, so pooled slices grow to the
// widest join they've served and are reused at length.
var bodySlicePool = sync.Pool{New: func() any {
	s := make([]*tbon.Lease, 0, 16)
	return &s
}}

func (m *merger) resultFilter(telem bool) tbon.NodeFilter {
	merge := m.treeMerger()
	mergeDelta := m.deltaMerger()
	return func(ctx *tbon.FilterCtx, children []*tbon.Lease) (*tbon.Lease, error) {
		bp := bodySlicePool.Get().(*[]*tbon.Lease)
		if cap(*bp) < len(children) {
			*bp = make([]*tbon.Lease, len(children))
		}
		bodies := (*bp)[:len(children)]
		defer func() {
			// Drop the lease pointers before pooling so a recycled slice
			// can't keep released buffers reachable.
			for i := range bodies {
				bodies[i] = nil
			}
			*bp = bodies[:0]
			bodySlicePool.Put(bp)
		}()
		release := func(n int) {
			for i := 0; i < n; i++ {
				bodies[i].Release()
			}
		}
		var tf *telemFold
		var intakeStart time.Time
		if telem {
			tf = telemFoldPool.Get().(*telemFold)
			tf.agg = telemetry.Frame{}
			defer telemFoldPool.Put(tf)
			intakeStart = time.Now()
		}
		version := uint8(0)
		anyPartial := false
		deltas := 0
		for i, c := range children {
			p, err := proto.Decode(c.Bytes())
			if err != nil {
				release(i)
				return nil, err
			}
			if p.Type != proto.MsgResult && p.Type != proto.MsgPartialResult && p.Type != proto.MsgDelta {
				release(i)
				return nil, fmt.Errorf("core: expected result, got %v", p.Type)
			}
			if p.Type == proto.MsgPartialResult {
				anyPartial = true
			}
			if p.Type == proto.MsgDelta {
				deltas++
			}
			if version == 0 || p.Version < version {
				version = p.Version
			}
			body := p.Payload
			if telem {
				rest, sect, err := proto.SplitTelemetrySection(body)
				if err != nil {
					release(i)
					return nil, err
				}
				if !telemetry.FoldEncoded(&tf.agg, sect) {
					release(i)
					return nil, errors.New("core: malformed telemetry section on child result")
				}
				body = rest
			}
			bodies[i] = c.Sub(body)
		}
		var frame *telemetry.Frame
		if telem {
			// The fold span times the whole child-intake loop with one clock
			// pair rather than bracketing each child's strip+decode+fold —
			// the loop's bare packet walk is a few pointer reads per child,
			// and per-child timers would cost more than what they'd exclude.
			tf.agg.Observe(telemetry.SpanFold, time.Since(intakeStart).Nanoseconds())
			tf.agg.Filters++
			if qd := int64(len(children)); qd > tf.agg.QueueDepth {
				tf.agg.QueueDepth = qd
			}
			if ll := tbon.LiveLeases(); ll > tf.agg.LiveLeases {
				tf.agg.LiveLeases = ll
			}
			frame = &tf.agg
		}
		// Delta children merge only against delta children: a delta frame
		// and a whole tree occupy disjoint task slices and there is nothing
		// sound to combine them into. Uniform-delta joins concatenate (or
		// XOR) exactly like whole trees; a mixed set — some daemons could
		// delta this round, some could not — aborts the gather with a typed
		// error the streaming front end recognizes (errMixedDeltaRound) and
		// recovers from by re-gathering the round whole, which is
		// deterministic because sampling re-runs at the same base.
		if deltas > 0 && (deltas < len(children) || anyPartial) {
			release(len(children))
			return nil, errMixedDeltaRound
		}
		if anyPartial || ctx.Incomplete() {
			if deltas > 0 {
				release(len(bodies))
				return nil, errMixedDeltaRound
			}
			return m.mergePartial(ctx, children, bodies, merge, version, frame)
		}
		outType := proto.MsgResult
		doMerge := merge
		if deltas > 0 {
			outType = proto.MsgDelta
			doMerge = mergeDelta
		}
		packet, err := doMerge(bodies, proto.HeaderSize, version, frame)
		release(len(bodies))
		if err != nil {
			return nil, err
		}
		return mintPacket(packet, version, outType), nil
	}
}
