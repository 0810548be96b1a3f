package proto

import (
	"bytes"
	"testing"
)

// FuzzPacketDecode feeds arbitrary bytes to the packet decoder. It must
// never panic; anything it accepts re-encodes to the identical bytes
// (Decode admits only canonical frames: exact length, zero padding, a
// version in [Version, MaxVersion]); and a partial result whose liveness
// prefix splits re-assembles to the identical payload. The committed
// corpus holds v1 packets of earlier builds (rejected), v2 and v3
// packets, and partial-result prefixes.
func FuzzPacketDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Packet{Stream: ControlStream, Type: MsgAttach, Payload: AttachRequest{MaxVersion: MaxVersion}.Encode()}.Encode())
	f.Add(Packet{Stream: DataStream, Type: MsgResult, Version: 3, Payload: bytes.Repeat([]byte{7}, 24)}.Encode())
	lv := []byte{0xFF, 0x0F, 0x01}
	partial := make([]byte, PartialPrefixLen(len(lv))+8)
	PutPartialPrefix(partial, lv)
	f.Add(Packet{Stream: DataStream, Type: MsgPartialResult, Version: 2, Payload: partial}.Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			return
		}
		if p.Version < Version || p.Version > MaxVersion {
			t.Fatalf("accepted version %d outside %d..%d", p.Version, Version, MaxVersion)
		}
		if enc := p.Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("decode/encode not canonical:\nin  %x\nout %x", b, enc)
		}
		if p.Type != MsgPartialResult {
			return
		}
		live, body, err := SplitPartialPayload(p.Payload)
		if err != nil {
			return
		}
		re := make([]byte, PartialPrefixLen(len(live))+len(body))
		PutPartialPrefix(re, live)
		copy(re[PartialPrefixLen(len(live)):], body)
		if !bytes.Equal(re, p.Payload) {
			t.Fatalf("partial prefix not canonical:\nin  %x\nout %x", p.Payload, re)
		}
	})
}
