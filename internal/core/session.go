package core

import (
	"errors"
	"fmt"
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

// resultFold is the gather's result filter (tbon.NodeFilter): each
// interior node folds its children's MsgResult packets into a foldAcc.
// Fold unwraps the packets — proto.Decode aliases the body, so the trees
// decode by alias straight out of the engine's leases — and merges them
// into the live trees under the configured representation. Emit encodes
// the trees once, behind a packet header written in place, at the LOWEST
// wire version the children carried: uniform after negotiation in a
// homogeneous session, and the min-merge downgrade rule when per-daemon
// caps put a v2-capped daemon inside a v3 fleet (Options.DaemonWireCaps:
// taking the minimum at every join lands the root packet on the session
// version). Uniform delta children fold into a MsgDelta packet exactly
// like whole trees.
//
// Under fault tolerance Emit has a second job: when the node cannot claim
// complete coverage — a child delivered a MsgPartialResult, or the engine
// reports missing children — it emits a MsgPartialResult carrying the
// surviving ranks (liveness) ahead of the trees. A complete node's packet
// is byte-for-byte the fault-free one, so fault-free runs with or without
// Options.FaultTolerant produce identical packets and keep the
// zero-allocation cycle.
//
// With telem set Fold strips each child's telemetry section (the
// outermost trailer) and folds it into the accumulator's aggregate with
// the call's fold span, fan-in and lease high-water mark; Emit adds the
// node's merge span and output bytes and appends the aggregate, so every
// packet on a telemetry session carries exactly one section.
type resultFold struct {
	m     *merger
	telem bool
}

func (m *merger) resultFilter(telem bool) tbon.NodeFilter { return &resultFold{m: m, telem: telem} }

func (f *resultFold) Fold(ctx *tbon.FilterCtx, acc any, in []*tbon.Lease) (any, error) {
	a, _ := acc.(*foldAcc)
	if a == nil {
		a = foldAccPool.Get().(*foldAcc)
	}
	start := time.Now()
	err := f.take(ctx, a, in)
	if err == nil && f.telem {
		// One clock pair times the whole intake loop: per-child timers
		// would cost more than what they'd exclude.
		a.agg.Observe(telemetry.SpanFold, time.Since(start).Nanoseconds())
		a.agg.Filters++
		inputs := int64(len(in))
		if acc != nil {
			inputs++
		}
		a.agg.QueueDepth = max(a.agg.QueueDepth, inputs)
		a.agg.LiveLeases = max(a.agg.LiveLeases, tbon.LiveLeases())
	}
	if err == nil {
		start = time.Now()
		err = f.m.merge(a)
		a.mergeNs += time.Since(start).Nanoseconds()
	}
	clear(a.in)
	a.in = a.in[:0]
	return a, err
}

// take unwraps in's packets into the accumulator's pending bodies,
// folding telemetry sections into the aggregate and taking partial
// results' liveness.
func (f *resultFold) take(ctx *tbon.FilterCtx, a *foldAcc, in []*tbon.Lease) error {
	for i, c := range in {
		p, err := proto.Decode(c.Bytes())
		if err != nil {
			return err
		}
		if p.Type != proto.MsgResult && p.Type != proto.MsgPartialResult && p.Type != proto.MsgDelta {
			return fmt.Errorf("core: expected result, got %v", p.Type)
		}
		body := p.Payload
		if f.telem {
			rest, sect, err := proto.SplitTelemetrySection(body)
			if err != nil {
				return err
			}
			if !telemetry.FoldEncoded(&a.agg, sect) {
				return errors.New("core: malformed telemetry section on child result")
			}
			body = rest
		}
		if p.Type == proto.MsgPartialResult {
			pos := i
			if ctx != nil && ctx.Spans != nil {
				pos = ctx.Spans[i].From
			}
			if body, err = f.m.takeLiveness(a, pos, body); err != nil {
				return err
			}
		}
		if err := a.add(body, c, p.Version, p.Type == proto.MsgDelta); err != nil {
			return err
		}
	}
	return nil
}

func (f *resultFold) Emit(ctx *tbon.FilterCtx, acc any) (*tbon.Lease, error) {
	a := acc.(*foldAcc)
	defer a.release()
	typ, prefix := proto.MsgResult, proto.HeaderSize
	if a.delta {
		typ = proto.MsgDelta
	}
	var lv []byte
	if a.live != nil || ctx.Incomplete() {
		if a.delta {
			return nil, errMixedDeltaRound
		}
		var err error
		if lv, err = f.m.liveness(ctx, a); err != nil {
			return nil, err
		}
		typ, prefix = proto.MsgPartialResult, prefix+proto.PartialPrefixLen(len(lv))
	}
	packet, err := a.encode(prefix, f.telem)
	if err != nil {
		return nil, err
	}
	if lv != nil {
		proto.PutPartialPrefix(packet[proto.HeaderSize:], lv)
	}
	return mintPacket(packet, a.version, typ), nil
}

func (f *resultFold) Drop(acc any) { acc.(*foldAcc).release() }
