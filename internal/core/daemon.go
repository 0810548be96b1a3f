package core

import (
	"fmt"
	"time"

	"stat/internal/proto"
	"stat/internal/sample"
	"stat/internal/tbon"
	"stat/internal/telemetry"
	"stat/internal/trace"
)

// daemonState tracks a tool daemon's position in the session protocol.
type daemonState int

const (
	stateInit daemonState = iota
	stateAttached
	stateSampled
	stateDetached
)

func (s daemonState) String() string {
	switch s {
	case stateInit:
		return "init"
	case stateAttached:
		return "attached"
	case stateSampled:
		return "sampled"
	case stateDetached:
		return "detached"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// daemon is one STAT back-end: it attaches to the application processes
// co-located on its node, walks their stacks on command, folds the traces
// into local prefix trees, and forwards them when the gather command
// arrives. State transitions are driven purely by protocol packets, as
// they are for the real tool's daemons.
type daemon struct {
	leaf  int
	tool  *Tool
	state daemonState

	// Sampling parameters recorded by the sample command; the walk itself
	// runs lazily at gather time so that a 1,664-daemon session does not
	// hold every daemon's trees in memory at once (the fold in the overlay
	// consumes each payload as it is produced).
	samples int
	threads int
	// epoch advances with every sample command so that repeated rounds in
	// one session observe fresh samples — how the tool distinguishes a
	// task that is stuck from one that is merely waiting.
	epoch int
	// wireVersion is the data-stream wire version negotiated at attach:
	// the highest version both the front end (per its attach request) and
	// this daemon speak. Gather payloads are encoded in it.
	wireVersion uint8
	// capVersion, when nonzero, caps the version this daemon advertises —
	// a simulated older daemon build inside a newer fleet
	// (Options.DaemonWireCaps). The attach negotiation can land at most
	// here, and the session-wide minimum then carries the downgrade.
	capVersion uint8
	// telemFrame and telemBuf are the daemon's reusable telemetry leaf
	// state: the round's frame is built in telemFrame and encoded into
	// telemBuf before being appended to the gather reply, so the
	// instrumented leaf path allocates nothing at steady state.
	telemFrame telemetry.Frame
	telemBuf   []byte
}

// handleControl advances the daemon's state machine for one control
// packet and returns its acknowledgement.
func (d *daemon) handleControl(p proto.Packet) proto.Ack {
	fail := func(format string, args ...any) proto.Ack {
		return proto.Ack{FirstError: fmt.Sprintf("daemon %d: ", d.leaf) + fmt.Sprintf(format, args...)}
	}
	switch p.Type {
	case proto.MsgAttach:
		if d.state != stateInit && d.state != stateDetached {
			return fail("attach while %s", d.state)
		}
		req, err := proto.DecodeAttachRequest(p.Payload)
		if err != nil {
			return fail("%v", err)
		}
		limit := maxWireVersion(d.tool.opts.BitVec, d.tool.opts.WireVersion)
		if d.capVersion != 0 && d.capVersion < limit {
			limit = d.capVersion
		}
		d.wireVersion = proto.Negotiate(req.MaxVersion, limit)
		d.state = stateAttached
		return proto.Ack{OK: 1, Version: d.wireVersion}
	case proto.MsgSample:
		if d.state != stateAttached && d.state != stateSampled {
			return fail("sample while %s", d.state)
		}
		req, err := proto.DecodeSampleRequest(p.Payload)
		if err != nil {
			return fail("%v", err)
		}
		if req.Samples == 0 || req.Threads == 0 {
			return fail("sample request with zero samples or threads")
		}
		d.samples = int(req.Samples)
		d.threads = int(req.Threads)
		d.epoch += d.samples
		d.state = stateSampled
		return proto.Ack{OK: 1}
	case proto.MsgDetach:
		if d.state == stateInit {
			return fail("detach before attach")
		}
		d.state = stateDetached
		return proto.Ack{OK: 1}
	default:
		return fail("unexpected control packet %v", p.Type)
	}
}

// sampleTrees runs the daemon's sampling for one gather command — the
// real per-daemon work of the tool's sample phase — and returns the
// requested prefix trees, as delta trees when the batch's DeltaOK is set.
// The walk runs through the shared direct-to-tree engine: raw PC stacks
// accumulate in a walker's persistent trie, frames descend by PC-range
// check (only novel ranges reach the memoized resolver), and the trees
// emit without any per-sample allocation.
func (d *daemon) sampleTrees(req proto.GatherRequest) (sample.Batch, error) {
	if d.state != stateSampled {
		return sample.Batch{}, fmt.Errorf("core: daemon %d: gather while %s", d.leaf, d.state)
	}
	ranks := d.tool.merge.taskMap[d.leaf]
	width := len(ranks)
	if d.tool.opts.BitVec == Original {
		width = d.tool.opts.Tasks
	}
	sreq := sample.Request{
		Ranks:       ranks,
		GlobalIndex: d.tool.opts.BitVec == Original,
		Width:       width,
		Samples:     d.samples,
		Threads:     d.threads,
		Base:        d.epoch - d.samples,
		Detail:      req.Detail,
		Want2D:      req.Which&proto.Tree2D != 0,
		Want3D:      req.Which&proto.Tree3D != 0,
		// Walk/seal span durations for the telemetry frame; clock reads
		// happen only on instrumented rounds.
		Timed: req.Telemetry,
		// On a v3 stream the encode would pick compressed containers
		// anyway; emitting them from the trie means the leaf serialize
		// reads extents the walk already computed. Older streams carry
		// dense labels, so compression would be pure overhead there.
		Compress: d.wireVersion >= trace.WireV3,
		Delta:    req.Delta,
	}
	if !sreq.Delta {
		return d.tool.sampler.Sample(sreq), nil
	}
	// Streaming rounds need round-over-round trie continuity: the resident
	// keyed walker guarantees consecutive rounds of this daemon seal
	// consecutive epochs on one trie, which pooled checkout can't (walkers
	// shuffle across daemons). The round before the first delta request
	// may have walked a pooled walker, so the keyed walker's first round
	// emits whole trees and deltas start one round later.
	return d.tool.sampler.SampleKeyed(d.leaf, sreq), nil
}

// gatherPacket performs the daemon's real work for a gather command.
// sampleTrees walks the round, seals the trie and emits the trees; the
// emitted trees alias the sealed labels, so the sampleTrees
// result is handed to the gather reply without copying: the trees are
// serialized — in the wire version negotiated at attach — as a complete
// MsgResult packet minted from the shared buffer pool behind a lease. The
// payload is encoded in place after a reserved packet header, and the
// lease's free hook returns the buffer to the pool once the parent's
// filter is done with it, so leaf payload production allocates nothing at
// steady state (ROADMAP's "leased buffers end to end"). Under v2 the
// pooled buffer's 8-aligned base plus the 16-byte header land every label
// word-aligned for the upstream zero-copy decode.
//
// On instrumented rounds (req.Telemetry) the daemon additionally
// appends its telemetry frame — walk/seal/encode/send spans, payload
// bytes — as a body trailer (proto.AppendTelemetrySection) and records
// the same spans into its flight recorder. Both write into per-daemon
// reusable scratch, keeping the instrumented path allocation-free.
func (d *daemon) gatherPacket(req proto.GatherRequest) (*tbon.Lease, error) {
	version := d.wireVersion
	telem := req.Telemetry && d.tool.telem != nil
	b, err := d.sampleTrees(req)
	if err != nil {
		return nil, err
	}
	t2, t3 := b.Tree2D, b.Tree3D
	if b.DeltaOK {
		t2, t3 = b.Delta2D, b.Delta3D
	}
	var treeBuf [2]*trace.Tree
	var trees []*trace.Tree
	switch req.Which {
	case proto.Tree2D:
		treeBuf[0] = t2
		trees = treeBuf[:1]
	case proto.Tree3D:
		treeBuf[0] = t3
		trees = treeBuf[:1]
	default:
		treeBuf[0], treeBuf[1] = t2, t3
		trees = treeBuf[:2]
	}
	hdr := proto.HeaderSize
	size := encodedTreesSize(version, trees)
	extra := 0
	var sendStart, encStart time.Time
	if telem {
		// Reserve the section's bytes up front so the append below can
		// never grow (and therefore never strand) the pooled buffer.
		extra = proto.TelemetrySectionLen(telemetry.EncodedFrameSize)
		sendStart = time.Now()
	}
	buf := outBufs.Get(hdr + size + extra)
	if telem {
		encStart = time.Now()
	}
	packet, err := encodeFramesInto(buf[:hdr], version, b.DeltaOK, trees...)
	b.Release()
	if err != nil {
		outBufs.Put(buf)
		return nil, err
	}
	typ := proto.MsgResult
	if b.DeltaOK {
		typ = proto.MsgDelta
	}
	if telem {
		now := time.Now()
		encodeNs := now.Sub(encStart).Nanoseconds()
		// Send covers the assembly cost measurable before the frame
		// freezes: the pooled-buffer mint. The header and trailer
		// writes land after the frame is encoded and cost nanoseconds.
		sendNs := encStart.Sub(sendStart).Nanoseconds()
		round := int32(d.epoch)
		f := &d.telemFrame
		*f = telemetry.Frame{Daemons: 1, Round: round}
		walkNs, sealNs := b.WalkNanos, b.SealNanos
		f.Observe(telemetry.SpanWalk, walkNs)
		f.Observe(telemetry.SpanSeal, sealNs)
		f.Observe(telemetry.SpanEncode, encodeNs)
		f.Observe(telemetry.SpanSend, sendNs)
		f.PayloadBytes = int64(len(packet) - hdr)
		f.LiveLeases = tbon.LiveLeases()
		rec := d.tool.telem.recorders[d.leaf]
		base := sendStart.UnixNano()
		rec.Record(telemetry.SpanWalk, round, base-sealNs-walkNs, walkNs)
		rec.Record(telemetry.SpanSeal, round, base-sealNs, sealNs)
		rec.Record(telemetry.SpanEncode, round, encStart.UnixNano(), encodeNs)
		rec.Record(telemetry.SpanSend, round, base, sendNs)
		d.telemBuf = f.AppendTo(d.telemBuf[:0])
		packet = proto.AppendTelemetrySection(packet, d.telemBuf)
	}
	return mintPacket(packet, version, typ), nil
}
