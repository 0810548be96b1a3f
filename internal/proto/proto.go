// Package proto defines STAT's front-end ↔ daemon control protocol, the
// reproduction of MRNet's stream/packet layer as STAT uses it. The front
// end drives the tool daemons through tagged packets broadcast down the
// overlay tree (attach, sample, gather, detach), daemons reply with acks
// that aggregate upward through a reduction filter, and the gather reply
// carries the serialized prefix trees. Framing is explicit and versioned
// per stream: the attach handshake negotiates the highest wire version the
// front end and every daemon share (see Negotiate), the data stream then
// carries that version in each packet header. Every packet has the same
// 16-byte header, and Decode accepts exactly the versions in [Version,
// MaxVersion]: the compact v1 packets and trees of earlier builds are not
// spoken on the wire any more (saved v1 trees still open, through
// package trace's decoder).
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the baseline protocol version and MaxVersion the newest this
// build speaks; packets of any version in [Version, MaxVersion] decode.
// Which version a stream actually carries is negotiated at attach — the
// front end advertises its MaxVersion in the AttachRequest, each daemon
// answers with the highest version both speak, and the ack merge takes
// the minimum over daemons, so the session lands on the highest common
// version. The packet version selects the tree wire format the data
// stream carries (trace.WireV2 / WireV3, numerically equal): both share
// the 16-byte frame header, and v3 differs only in its adaptive
// compressed rank-set labels.
const (
	Version    = 2
	MaxVersion = 3
)

// Negotiate picks the highest version two peers share: the smaller of the
// two advertised maxima, clamped into [Version, MaxVersion]. The clamp is
// defensive — DecodeAttachRequest already rejects below-baseline
// advertisements, so in the attach path only the MaxVersion ceiling (a
// newer peer) is ever exercised — but Negotiate must never return a
// version outside what this build speaks.
func Negotiate(a, b uint8) uint8 {
	v := a
	if b < v {
		v = b
	}
	if v < Version {
		v = Version
	}
	if v > MaxVersion {
		v = MaxVersion
	}
	return v
}

// MsgType tags a packet.
type MsgType uint8

const (
	// MsgAttach asks daemons to attach to their application processes.
	MsgAttach MsgType = iota + 1
	// MsgSample asks daemons to gather stack samples and merge locally.
	MsgSample
	// MsgGather asks daemons to forward their merged trees upward.
	MsgGather
	// MsgDetach releases the application.
	MsgDetach
	// MsgAck is the daemons' aggregated acknowledgement.
	MsgAck
	// MsgResult carries serialized prefix trees upward.
	MsgResult
	// MsgPartialResult carries serialized prefix trees covering only part
	// of the job: the payload is a liveness prefix (the set of surviving
	// ranks, see PutPartialPrefix) followed by the same tree body a
	// MsgResult would carry. Emitted by the overlay's result filter when a
	// subtree is lost in a fault-tolerant gather.
	MsgPartialResult
	// MsgDelta carries serialized delta frames (trace's "STD2"/"STD3"
	// format — per-node XOR change sets against the previous round) in
	// the same tree-list body layout as MsgResult. Emitted by daemons
	// in a streaming session's steady state when the round qualified for
	// delta extraction; a daemon that cannot produce a delta this round
	// answers the same gather with a plain MsgResult, and the overlay's
	// result filter merges only uniform child sets (see core) — a mixed
	// round is reported upward as an error and regathered whole.
	MsgDelta
)

func (m MsgType) String() string {
	switch m {
	case MsgAttach:
		return "attach"
	case MsgSample:
		return "sample"
	case MsgGather:
		return "gather"
	case MsgDetach:
		return "detach"
	case MsgAck:
		return "ack"
	case MsgResult:
		return "result"
	case MsgPartialResult:
		return "partial-result"
	case MsgDelta:
		return "delta"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(m))
}

// Packet is one protocol message.
type Packet struct {
	// Stream identifies the logical MRNet stream (one session uses one
	// control stream and one data stream).
	Stream uint16
	Type   MsgType
	// Version is the wire version the packet carries. Zero means "unset"
	// and encodes as the baseline Version; Decode always fills it with the
	// version it read.
	Version uint8
	// Payload is the type-specific body.
	Payload []byte
}

// Stream identifiers used by STAT sessions.
const (
	ControlStream uint16 = 1
	DataStream    uint16 = 2
)

var packetMagic = [2]byte{'S', 'P'}

// HeaderSize is the frame overhead preceding every packet's payload: magic
// (2), version (1), stream (2), type (1), payload length (4), and six zero
// bytes of padding, so a payload begins at a multiple of 8 — when the
// packet buffer is 8-aligned in memory (pooled buffers are), every payload
// starts word-aligned, which is what lets the data stream's 8-aligned tree
// formats keep their alignment guarantee end to end.
const HeaderSize = 16

// headerFields is the length of the header's fields before the padding.
const headerFields = 10

// HeaderSizeV reports the frame overhead preceding a packet's payload
// under the given version: HeaderSize for every version this build speaks.
func HeaderSizeV(uint8) int { return HeaderSize }

// PutHeaderV writes a packet frame header under the given version for a
// payload of n bytes into b, which must hold at least HeaderSize bytes. It exists for callers that encode a payload in place directly
// after a reserved header — the zero-copy path of the overlay's merge
// filter and the leaf daemons' pooled payload buffers — instead of paying
// Encode's payload copy.
func PutHeaderV(b []byte, version uint8, stream uint16, typ MsgType, n int) {
	b[0], b[1] = packetMagic[0], packetMagic[1]
	b[2] = version
	binary.LittleEndian.PutUint16(b[3:5], stream)
	b[5] = byte(typ)
	binary.LittleEndian.PutUint32(b[6:10], uint32(n))
	clear(b[headerFields:HeaderSize])
}

// Encode frames the packet: magic, version, stream, type, length,
// padding, payload. A zero Version encodes as the baseline.
func (p Packet) Encode() []byte {
	v := p.Version
	if v == 0 {
		v = Version
	}
	buf := make([]byte, HeaderSize, HeaderSize+len(p.Payload))
	PutHeaderV(buf, v, p.Stream, p.Type, len(p.Payload))
	return append(buf, p.Payload...)
}

// Decode parses a framed packet, rejecting bad magic, truncation, nonzero
// padding, and versions outside [Version, MaxVersion] — v1 packets
// included. Within the range, skew is a negotiation matter, not an error,
// and the accepted version is reported in Packet.Version. Payload aliases b rather than copying it — the
// overlay's buffer-lifetime machinery (leases pinning packet buffers)
// exists so views like this stay valid; callers that outlive b's buffer
// must either pin it or copy the payload themselves.
func Decode(b []byte) (Packet, error) {
	if len(b) < HeaderSize {
		return Packet{}, errors.New("proto: packet too short")
	}
	if b[0] != packetMagic[0] || b[1] != packetMagic[1] {
		return Packet{}, errors.New("proto: bad magic")
	}
	if b[2] < Version || b[2] > MaxVersion {
		return Packet{}, fmt.Errorf("proto: unsupported packet version %d (this build speaks %d..%d)", b[2], Version, MaxVersion)
	}
	for _, c := range b[headerFields:HeaderSize] {
		if c != 0 {
			return Packet{}, errors.New("proto: nonzero header padding")
		}
	}
	n := int(binary.LittleEndian.Uint32(b[6:10]))
	if len(b)-HeaderSize != n {
		return Packet{}, fmt.Errorf("proto: payload length %d, frame carries %d", n, len(b)-HeaderSize)
	}
	return Packet{
		Stream:  binary.LittleEndian.Uint16(b[3:5]),
		Type:    MsgType(b[5]),
		Version: b[2],
		Payload: b[HeaderSize:],
	}, nil
}

// AttachRequest is the attach command's body: the front end's side of the
// version handshake, one byte. A body without the advertisement is an
// error, as is one below the baseline Version.
type AttachRequest struct {
	// MaxVersion is the highest wire version the front end speaks.
	MaxVersion uint8
}

// Encode serializes the request body.
func (r AttachRequest) Encode() []byte { return []byte{r.MaxVersion} }

// DecodeAttachRequest parses an attach command body.
func DecodeAttachRequest(b []byte) (AttachRequest, error) {
	if len(b) != 1 {
		return AttachRequest{}, fmt.Errorf("proto: attach request body %d bytes, want 1 (the version advertisement)", len(b))
	}
	if b[0] < Version {
		return AttachRequest{}, fmt.Errorf("proto: attach advertises version %d below baseline %d", b[0], Version)
	}
	return AttachRequest{MaxVersion: b[0]}, nil
}

// SampleRequest parameterizes a sampling command.
type SampleRequest struct {
	// Samples per task (the paper gathers 10).
	Samples uint16
	// Threads per task to walk (Section VII extension).
	Threads uint16
}

// Encode serializes the request body.
func (r SampleRequest) Encode() []byte {
	buf := make([]byte, 4)
	binary.LittleEndian.PutUint16(buf[0:2], r.Samples)
	binary.LittleEndian.PutUint16(buf[2:4], r.Threads)
	return buf
}

// DecodeSampleRequest parses a sampling command body.
func DecodeSampleRequest(b []byte) (SampleRequest, error) {
	if len(b) != 4 {
		return SampleRequest{}, fmt.Errorf("proto: sample request body %d bytes, want 4", len(b))
	}
	return SampleRequest{
		Samples: binary.LittleEndian.Uint16(b[0:2]),
		Threads: binary.LittleEndian.Uint16(b[2:4]),
	}, nil
}

// TreeKind selects which trees a gather returns.
type TreeKind uint8

const (
	// Tree2D is the latest-sample trace×space tree.
	Tree2D TreeKind = 1
	// Tree3D is the all-samples trace×space×time tree.
	Tree3D TreeKind = 2
	// TreeBoth gathers both (the tool's normal operation).
	TreeBoth TreeKind = 3
)

// GatherRequest parameterizes a gather command.
type GatherRequest struct {
	Which TreeKind
	// Detail selects function+offset frame granularity (STAT's detailed
	// traces, used by the progress check).
	Detail bool
	// Delta invites daemons to answer with a MsgDelta frame against the
	// previous round when they can (streaming sessions); daemons that
	// cannot — first round, resynchronized walker — answer
	// with a whole-tree MsgResult as usual. The flag encodes as an
	// optional third body byte so pre-streaming peers, which emit and
	// expect 2-byte bodies, interoperate unchanged.
	Delta bool
	// Telemetry invites daemons to append a telemetry section (see
	// AppendTelemetrySection) to their reply bodies, which interior
	// filters fold on the way up. Same extension discipline as Delta:
	// an optional fourth body byte, so 2- and 3-byte-body peers
	// interoperate unchanged (they simply never emit the section).
	Telemetry bool
}

// Encode serializes the request body.
func (r GatherRequest) Encode() []byte {
	d := byte(0)
	if r.Detail {
		d = 1
	}
	dl := byte(0)
	if r.Delta {
		dl = 1
	}
	if r.Telemetry {
		return []byte{byte(r.Which), d, dl, 1}
	}
	if r.Delta {
		return []byte{byte(r.Which), d, dl}
	}
	return []byte{byte(r.Which), d}
}

// DecodeGatherRequest parses a gather command body.
func DecodeGatherRequest(b []byte) (GatherRequest, error) {
	if len(b) < 2 || len(b) > 4 {
		return GatherRequest{}, fmt.Errorf("proto: gather request body %d bytes, want 2..4", len(b))
	}
	k := TreeKind(b[0])
	if k != Tree2D && k != Tree3D && k != TreeBoth {
		return GatherRequest{}, fmt.Errorf("proto: unknown tree kind %d", b[0])
	}
	if b[1] > 1 {
		return GatherRequest{}, fmt.Errorf("proto: bad detail flag %d", b[1])
	}
	r := GatherRequest{Which: k, Detail: b[1] == 1}
	if len(b) >= 3 {
		if b[2] > 1 {
			return GatherRequest{}, fmt.Errorf("proto: bad delta flag %d", b[2])
		}
		r.Delta = b[2] == 1
	}
	if len(b) == 4 {
		if b[3] > 1 {
			return GatherRequest{}, fmt.Errorf("proto: bad telemetry flag %d", b[3])
		}
		r.Telemetry = b[3] == 1
	}
	return r, nil
}

// Ack is the aggregated acknowledgement flowing up the tree: a count of
// daemons that succeeded, the lowest wire version the acknowledging
// daemons negotiated (how the attach handshake's result reaches the front
// end), and the first error, if any. Acks merge associatively, so the
// overlay's reduction combines them at every level.
type Ack struct {
	OK int32
	// Version is the smallest wire version among the daemons this ack
	// aggregates; zero means no daemon reported one (acks outside the
	// attach exchange leave it unset), which the session treats as the
	// baseline.
	Version uint8
	// FirstError is empty when every daemon succeeded.
	FirstError string
}

// Merge combines acks (associative, order-preserving on the error; the
// version combines by minimum over nonzero values, zero acting as the
// identity).
func (a Ack) Merge(b Ack) Ack {
	out := Ack{OK: a.OK + b.OK, Version: a.Version, FirstError: a.FirstError}
	if b.Version != 0 && (out.Version == 0 || b.Version < out.Version) {
		out.Version = b.Version
	}
	if out.FirstError == "" {
		out.FirstError = b.FirstError
	}
	return out
}

// Encode serializes the ack body.
func (a Ack) Encode() []byte {
	buf := make([]byte, 9+len(a.FirstError))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(a.OK))
	buf[4] = a.Version
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(a.FirstError)))
	copy(buf[9:], a.FirstError)
	return buf
}

// PartialPrefixLen reports the size of a MsgPartialResult's liveness
// prefix for a serialized liveness set of n bytes: a u32 length, the
// liveness bytes, and zero padding up to the next multiple of 8, so the
// tree body that follows keeps the 8-aligned guarantee the tree formats
// promise (the header is itself 16 bytes, so body alignment is exactly
// prefix alignment).
func PartialPrefixLen(n int) int { return (4 + n + 7) &^ 7 }

// PutPartialPrefix writes a MsgPartialResult liveness prefix into b, which
// must hold at least PartialPrefixLen(len(liveness)) bytes. The liveness
// bytes are opaque to proto (core serializes a bitvec.Vector of
// surviving ranks); padding bytes are written as zeros — callers encode
// into pooled, dirty buffers.
func PutPartialPrefix(b []byte, liveness []byte) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(liveness)))
	copy(b[4:], liveness)
	clear(b[4+len(liveness) : PartialPrefixLen(len(liveness))])
}

// SplitPartialPayload splits a MsgPartialResult payload into its liveness
// bytes and the tree body that follows. Both returned slices alias
// payload.
func SplitPartialPayload(payload []byte) (liveness, body []byte, err error) {
	if len(payload) < 4 {
		return nil, nil, errors.New("proto: partial result payload too short")
	}
	n := int(binary.LittleEndian.Uint32(payload[0:4]))
	p := PartialPrefixLen(n)
	if n < 0 || len(payload) < p {
		return nil, nil, fmt.Errorf("proto: partial result liveness length %d exceeds payload", n)
	}
	for i := 4 + n; i < p; i++ {
		if payload[i] != 0 {
			return nil, nil, errors.New("proto: nonzero partial result padding")
		}
	}
	return payload[4 : 4+n], payload[p:], nil
}

// Telemetry sections ride result/delta bodies as a *trailer*:
// [tree body][section bytes][u32 section length]["SPTM"]. A trailer —
// unlike the liveness *prefix* — leaves the body's start untouched, so
// the 8-aligned tree guarantee and every existing body sniffer keep
// working; the section bytes themselves are opaque to proto (core
// carries an encoded telemetry.Frame). Whether a body has a trailer is
// negotiated, not sniffed: the GatherRequest.Telemetry flag travels
// down with the command, so every node in the session knows whether to
// append, fold, and strip — a 2-/3-byte-body peer never sees the flag
// and never emits the section.
const telemetryTrailerLen = 8

var telemetryMagic = [4]byte{'S', 'P', 'T', 'M'}

// TelemetrySectionLen reports the body overhead of a telemetry section
// of n bytes.
func TelemetrySectionLen(n int) int { return n + telemetryTrailerLen }

// AppendTelemetrySection appends a telemetry section trailer carrying
// section to body and returns the extended slice. Allocation-free when
// body has capacity.
func AppendTelemetrySection(body, section []byte) []byte {
	n := len(body)
	need := len(section) + telemetryTrailerLen
	if cap(body)-n < need {
		grown := make([]byte, n, n+need)
		copy(grown, body)
		body = grown
	}
	body = body[:n+need]
	copy(body[n:], section)
	t := body[n+len(section):]
	binary.LittleEndian.PutUint32(t[0:4], uint32(len(section)))
	copy(t[4:], telemetryMagic[:])
	return body
}

// SplitTelemetrySection splits a body known to carry a telemetry
// trailer into the tree body and the section bytes. Both returned
// slices alias body. It is an error for the trailer to be absent or
// malformed — callers consult the negotiated telemetry flag, they do
// not probe.
func SplitTelemetrySection(body []byte) (tree, section []byte, err error) {
	if len(body) < telemetryTrailerLen {
		return nil, nil, errors.New("proto: body too short for telemetry trailer")
	}
	t := body[len(body)-telemetryTrailerLen:]
	if [4]byte(t[4:8]) != telemetryMagic {
		return nil, nil, errors.New("proto: telemetry trailer magic missing")
	}
	n := int(binary.LittleEndian.Uint32(t[0:4]))
	if n < 0 || n > len(body)-telemetryTrailerLen {
		return nil, nil, fmt.Errorf("proto: telemetry section length %d exceeds body", n)
	}
	cut := len(body) - telemetryTrailerLen - n
	return body[:cut], body[cut : cut+n], nil
}

// DecodeAck parses an ack body.
func DecodeAck(b []byte) (Ack, error) {
	if len(b) < 9 {
		return Ack{}, errors.New("proto: ack too short")
	}
	n := int(binary.LittleEndian.Uint32(b[5:9]))
	if len(b)-9 != n {
		return Ack{}, fmt.Errorf("proto: ack error length %d, body carries %d", n, len(b)-9)
	}
	return Ack{
		OK:         int32(binary.LittleEndian.Uint32(b[0:4])),
		Version:    b[4],
		FirstError: string(b[9:]),
	}, nil
}
