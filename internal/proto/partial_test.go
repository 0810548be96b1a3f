package proto

import (
	"bytes"
	"testing"
)

func TestPartialPrefixRoundTrip(t *testing.T) {
	livenessSets := [][]byte{
		nil,
		{},
		{0x01},
		{0xFF, 0x0F},
		bytes.Repeat([]byte{0xAB}, 11),
		bytes.Repeat([]byte{0x55}, 64),
	}
	bodies := [][]byte{nil, []byte("tree body"), bytes.Repeat([]byte{0xC3}, 1000)}
	for _, lv := range livenessSets {
		for _, body := range bodies {
			p := PartialPrefixLen(len(lv))
			// Encode into a dirty buffer: PutPartialPrefix must zero its
			// own padding.
			buf := bytes.Repeat([]byte{0xEE}, p+len(body))
			PutPartialPrefix(buf, lv)
			copy(buf[p:], body)
			gotLive, gotBody, err := SplitPartialPayload(buf)
			if err != nil {
				t.Fatalf("liveness=%d body=%d: %v", len(lv), len(body), err)
			}
			if !bytes.Equal(gotLive, lv) && len(gotLive)+len(lv) > 0 {
				t.Errorf("liveness %x, want %x", gotLive, lv)
			}
			if !bytes.Equal(gotBody, body) && len(gotBody)+len(body) > 0 {
				t.Errorf("body mismatch (%d bytes, want %d)", len(gotBody), len(body))
			}
		}
	}
}

// TestPartialPrefixLenAlignment: the prefix always pads to the next
// multiple of 8 past its length word and liveness bytes, and no further.
func TestPartialPrefixLenAlignment(t *testing.T) {
	for n := 0; n <= 64; n++ {
		p := PartialPrefixLen(n)
		if p%8 != 0 || p < 4+n || p-(4+n) >= 8 {
			t.Errorf("prefix for %d liveness bytes = %d, want 4+%d padded to a multiple of 8", n, p, n)
		}
	}
}

func TestSplitPartialPayloadRejects(t *testing.T) {
	// Too short for the length word.
	if _, _, err := SplitPartialPayload([]byte{1, 0, 0}); err == nil {
		t.Error("3-byte payload accepted")
	}
	// Liveness length pointing past the payload.
	short := make([]byte, 8)
	short[0] = 200
	if _, _, err := SplitPartialPayload(short); err == nil {
		t.Error("overlong liveness length accepted")
	}
	// The declared liveness plus padding must also fit.
	exact := make([]byte, 6)
	exact[0] = 2 // prefix = align8(4+2) = 8 > 6
	if _, _, err := SplitPartialPayload(exact); err == nil {
		t.Error("payload shorter than padded prefix accepted")
	}
	// Nonzero padding is corruption, not slack.
	dirty := make([]byte, 8)
	dirty[0] = 1
	dirty[4] = 0xFF // liveness byte, fine
	dirty[6] = 0x01 // padding byte, must be zero
	if _, _, err := SplitPartialPayload(dirty); err == nil {
		t.Error("nonzero padding accepted")
	}
}

func TestPartialResultMsgType(t *testing.T) {
	if MsgPartialResult.String() == "" || MsgPartialResult.String() == "unknown" {
		t.Errorf("MsgPartialResult has no name: %q", MsgPartialResult)
	}
	p := Packet{Stream: DataStream, Type: MsgPartialResult, Payload: []byte{4, 0, 0, 0, 1, 2, 3, 4}}
	got, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgPartialResult {
		t.Errorf("round trip type %v", got.Type)
	}
}
