package proto

import (
	"testing"
	"testing/quick"
)

func TestPacketRoundTrip(t *testing.T) {
	cases := []Packet{
		{Stream: ControlStream, Type: MsgAttach},
		{Stream: ControlStream, Type: MsgSample, Payload: SampleRequest{Samples: 10, Threads: 1}.Encode()},
		{Stream: DataStream, Type: MsgResult, Payload: make([]byte, 100000)},
		{Stream: 0xFFFF, Type: MsgDetach, Payload: []byte{}},
		{Stream: DataStream, Type: MsgResult, Version: 2, Payload: []byte("v2 body")},
		{Stream: DataStream, Type: MsgResult, Version: 3, Payload: []byte("v3 body")},
	}
	for _, p := range cases {
		enc := p.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: %v", p.Type, err)
		}
		if got.Stream != p.Stream || got.Type != p.Type || len(got.Payload) != len(p.Payload) {
			t.Errorf("round trip mismatch: %+v vs %+v", got, p)
		}
		wantVersion := p.Version
		if wantVersion == 0 {
			wantVersion = Version
		}
		if got.Version != wantVersion {
			t.Errorf("%v: decoded version %d, want %d", p.Type, got.Version, wantVersion)
		}
		if want := HeaderSize + len(p.Payload); len(enc) != want {
			t.Errorf("%v: frame is %d bytes, want %d", p.Type, len(enc), want)
		}
	}
}

// TestDecodeRejects exercises the negotiation semantics of version
// handling: any version in [Version, MaxVersion] is accepted (skew inside
// the supported range is settled by the attach handshake, not by
// rejecting packets), while versions outside the range — a future build,
// a zeroed byte, or a v1 packet of an earlier build — are refused.
func TestDecodeRejects(t *testing.T) {
	good := Packet{Stream: 1, Type: MsgAck, Payload: []byte("xy")}.Encode()
	cases := map[string]func([]byte) []byte{
		"short":            func(b []byte) []byte { return b[:5] },
		"bad magic":        func(b []byte) []byte { c := clone(b); c[0] = 'X'; return c },
		"version too new":  func(b []byte) []byte { c := clone(b); c[2] = MaxVersion + 1; return c },
		"version zero":     func(b []byte) []byte { c := clone(b); c[2] = 0; return c },
		"truncated":        func(b []byte) []byte { return b[:len(b)-1] },
		"oversized":        func(b []byte) []byte { return append(clone(b), 0) },
		"v2 header cut":    func([]byte) []byte { return Packet{Version: 2, Type: MsgAck}.Encode()[:12] },
		"v2 dirty padding": func([]byte) []byte { c := Packet{Version: 2, Type: MsgAck}.Encode(); c[12] = 0xAA; return c },
		// A v1 packet: the 10-byte header, payload right behind it.
		"v1 packet": func([]byte) []byte { return []byte{'S', 'P', 1, 2, 0, byte(MsgAck), 2, 0, 0, 0, 'x', 'y'} },
	}
	for name, corrupt := range cases {
		if _, err := Decode(corrupt(good)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Every version in the supported window decodes.
	for v := uint8(Version); v <= MaxVersion; v++ {
		if _, err := Decode(Packet{Version: v, Type: MsgAck}.Encode()); err != nil {
			t.Errorf("version %d rejected: %v", v, err)
		}
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct{ a, b, want uint8 }{
		{2, 2, 2},
		{3, 3, 3},
		{2, 3, 2},
		{3, 2, 2},
		{MaxVersion, MaxVersion + 5, MaxVersion}, // future peer clamps to ours
		{1, 3, Version},                          // below-baseline advertisement clamps up
		{0, 2, Version},                          // garbage advertisement degrades to baseline
		{2, 0, Version},
	}
	for _, c := range cases {
		if got := Negotiate(c.a, c.b); got != c.want {
			t.Errorf("Negotiate(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAttachRequestRoundTrip(t *testing.T) {
	for v := uint8(Version); v <= MaxVersion; v++ {
		got, err := DecodeAttachRequest(AttachRequest{MaxVersion: v}.Encode())
		if err != nil || got.MaxVersion != v {
			t.Errorf("round trip v%d: %+v, %v", v, got, err)
		}
	}
	// An attach without a version advertisement is an error.
	if _, err := DecodeAttachRequest(nil); err == nil {
		t.Error("empty attach body accepted")
	}
	for _, v := range []byte{0, 1} {
		if _, err := DecodeAttachRequest([]byte{v}); err == nil {
			t.Errorf("below-baseline advertisement %d accepted", v)
		}
	}
	if _, err := DecodeAttachRequest([]byte{1, 2}); err == nil {
		t.Error("oversized attach body accepted")
	}
}

func TestSampleRequestRoundTrip(t *testing.T) {
	r := SampleRequest{Samples: 10, Threads: 8}
	got, err := DecodeSampleRequest(r.Encode())
	if err != nil || got != r {
		t.Errorf("round trip: %+v, %v", got, err)
	}
	if _, err := DecodeSampleRequest([]byte{1, 2, 3}); err == nil {
		t.Error("short body accepted")
	}
}

func TestGatherRequestRoundTrip(t *testing.T) {
	for _, k := range []TreeKind{Tree2D, Tree3D, TreeBoth} {
		got, err := DecodeGatherRequest(GatherRequest{Which: k}.Encode())
		if err != nil || got.Which != k {
			t.Errorf("kind %d: %+v, %v", k, got, err)
		}
	}
	if _, err := DecodeGatherRequest([]byte{9}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := DecodeGatherRequest(nil); err == nil {
		t.Error("empty body accepted")
	}
}

func TestGatherRequestDeltaFlag(t *testing.T) {
	// The delta invitation rides an optional third byte: absent for
	// compatibility when unset, so pre-streaming bodies decode unchanged.
	plain := GatherRequest{Which: TreeBoth, Detail: true}
	if got := plain.Encode(); len(got) != 2 {
		t.Errorf("delta-less request encodes to %d bytes, want 2", len(got))
	}
	delta := GatherRequest{Which: TreeBoth, Detail: true, Delta: true}
	enc := delta.Encode()
	if len(enc) != 3 {
		t.Fatalf("delta request encodes to %d bytes, want 3", len(enc))
	}
	got, err := DecodeGatherRequest(enc)
	if err != nil || got != delta {
		t.Errorf("round trip: %+v, %v", got, err)
	}
	// Explicit zero third byte is legal (Delta=false), anything else is not.
	got, err = DecodeGatherRequest([]byte{byte(Tree2D), 0, 0})
	if err != nil || got.Delta {
		t.Errorf("explicit zero delta byte: %+v, %v", got, err)
	}
	if _, err := DecodeGatherRequest([]byte{byte(Tree2D), 0, 2}); err == nil {
		t.Error("bad delta flag accepted")
	}
	if _, err := DecodeGatherRequest([]byte{byte(Tree2D), 0, 1, 0, 0}); err == nil {
		t.Error("overlong body accepted")
	}
}

func TestGatherRequestTelemetryFlag(t *testing.T) {
	// The telemetry invitation rides an optional fourth byte, same
	// discipline as Delta's third: absent when unset, so 2- and
	// 3-byte-body peers interoperate unchanged.
	for _, r := range []GatherRequest{
		{Which: Tree2D, Telemetry: true},
		{Which: TreeBoth, Detail: true, Telemetry: true},
		{Which: Tree3D, Delta: true, Telemetry: true},
	} {
		enc := r.Encode()
		if len(enc) != 4 {
			t.Fatalf("%+v encodes to %d bytes, want 4", r, len(enc))
		}
		got, err := DecodeGatherRequest(enc)
		if err != nil || got != r {
			t.Errorf("round trip %+v: got %+v, %v", r, got, err)
		}
	}
	// Telemetry without Delta still encodes the zero delta byte — the
	// fourth byte's position is fixed.
	enc := GatherRequest{Which: Tree2D, Telemetry: true}.Encode()
	if enc[2] != 0 || enc[3] != 1 {
		t.Errorf("telemetry-only body = %v, want delta byte 0 then telemetry byte 1", enc)
	}
	// Explicit zero fourth byte is legal, other values are not.
	got, err := DecodeGatherRequest([]byte{byte(Tree2D), 0, 0, 0})
	if err != nil || got.Telemetry {
		t.Errorf("explicit zero telemetry byte: %+v, %v", got, err)
	}
	if _, err := DecodeGatherRequest([]byte{byte(Tree2D), 0, 0, 2}); err == nil {
		t.Error("bad telemetry flag accepted")
	}
}

func TestTelemetrySectionRoundTrip(t *testing.T) {
	body := []byte("tree-body-bytes")
	section := []byte{1, 2, 3, 4, 5}
	ext := AppendTelemetrySection(append([]byte(nil), body...), section)
	if len(ext) != len(body)+TelemetrySectionLen(len(section)) {
		t.Fatalf("extended length %d, want %d", len(ext), len(body)+TelemetrySectionLen(len(section)))
	}
	tree, sec, err := SplitTelemetrySection(ext)
	if err != nil {
		t.Fatal(err)
	}
	if string(tree) != string(body) || string(sec) != string(section) {
		t.Fatalf("split = %q, %q", tree, sec)
	}
	// An empty section is legal (a join with nothing to report still
	// marks the body as sectioned).
	ext = AppendTelemetrySection(nil, nil)
	tree, sec, err = SplitTelemetrySection(ext)
	if err != nil || len(tree) != 0 || len(sec) != 0 {
		t.Fatalf("empty section split = %q, %q, %v", tree, sec, err)
	}
	// In-place append: with capacity, the body slice is extended
	// without reallocating.
	buf := make([]byte, 3, 64)
	ext = AppendTelemetrySection(buf, section)
	if &ext[0] != &buf[0] {
		t.Error("append with capacity reallocated")
	}
}

func TestTelemetrySectionRejects(t *testing.T) {
	if _, _, err := SplitTelemetrySection([]byte("short")); err == nil {
		t.Error("short body accepted")
	}
	good := AppendTelemetrySection([]byte("body"), []byte{9, 9})
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff // corrupt the magic
	if _, _, err := SplitTelemetrySection(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), good...)
	bad[len(bad)-8] = 0xff // section length exceeds body
	if _, _, err := SplitTelemetrySection(bad); err == nil {
		t.Error("oversized section length accepted")
	}
}

func TestAckMerge(t *testing.T) {
	a := Ack{OK: 3}
	b := Ack{OK: 2, FirstError: "daemon 5: boom"}
	c := Ack{OK: 1, FirstError: "daemon 9: later"}
	m := a.Merge(b).Merge(c)
	if m.OK != 6 {
		t.Errorf("OK = %d", m.OK)
	}
	if m.FirstError != "daemon 5: boom" {
		t.Errorf("FirstError = %q, want the first", m.FirstError)
	}
	// Associativity: (a·b)·c == a·(b·c).
	m2 := a.Merge(b.Merge(c))
	if m != m2 {
		t.Errorf("ack merge not associative: %+v vs %+v", m, m2)
	}
}

// TestAckVersionMerge pins the handshake's aggregation rule: the merged
// version is the minimum over daemons that reported one, zero (a
// pre-handshake build) acting as the identity.
func TestAckVersionMerge(t *testing.T) {
	cases := []struct {
		acks []Ack
		want uint8
	}{
		{[]Ack{{OK: 1, Version: 3}, {OK: 1, Version: 3}}, 3},
		{[]Ack{{OK: 1, Version: 3}, {OK: 1, Version: 2}, {OK: 1, Version: 3}}, 2},
		{[]Ack{{OK: 1}, {OK: 1, Version: 3}}, 3},
		{[]Ack{{OK: 1}, {OK: 1}}, 0},
	}
	for _, c := range cases {
		var total Ack
		for _, a := range c.acks {
			total = total.Merge(a)
		}
		if total.Version != c.want {
			t.Errorf("merge %v: version %d, want %d", c.acks, total.Version, c.want)
		}
	}
	// Order independence on the version (min is commutative).
	x := Ack{OK: 1, Version: 2}.Merge(Ack{OK: 1, Version: 3})
	y := Ack{OK: 1, Version: 3}.Merge(Ack{OK: 1, Version: 2})
	if x.Version != y.Version {
		t.Errorf("version merge order-dependent: %d vs %d", x.Version, y.Version)
	}
}

func TestAckRoundTrip(t *testing.T) {
	for _, a := range []Ack{{OK: 0}, {OK: 1664}, {OK: 1664, Version: 2}, {OK: 2, Version: 1, FirstError: "daemon 7: gather while init"}} {
		got, err := DecodeAck(a.Encode())
		if err != nil || got != a {
			t.Errorf("round trip %+v: %+v, %v", a, got, err)
		}
	}
	if _, err := DecodeAck([]byte{1}); err == nil {
		t.Error("short ack accepted")
	}
	bad := Ack{FirstError: "xx"}.Encode()
	if _, err := DecodeAck(bad[:len(bad)-1]); err == nil {
		t.Error("truncated error string accepted")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for typ, want := range map[MsgType]string{
		MsgAttach: "attach", MsgSample: "sample", MsgGather: "gather",
		MsgDetach: "detach", MsgAck: "ack", MsgResult: "result",
		MsgDelta: "delta",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q", typ, typ.String())
		}
	}
}

func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(stream uint16, typ uint8, payload []byte) bool {
		p := Packet{Stream: stream, Type: MsgType(typ), Payload: payload}
		got, err := Decode(p.Encode())
		if err != nil {
			return false
		}
		if got.Stream != p.Stream || got.Type != p.Type || len(got.Payload) != len(p.Payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickDecodeNeverPanics feeds arbitrary bytes to Decode: corrupt
// input must produce errors, not panics.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on %x: %v", b, r)
			}
		}()
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }
