package core

import (
	"bytes"
	"testing"

	"stat/internal/trace"
)

// FuzzDecodeTrees feeds arbitrary bytes to the MsgResult body parser: it
// must never panic, must error on malformed frames (the v1 framing of
// earlier builds included), and must re-encode whatever it accepts
// byte-identically under the wire version its trees carry.
func FuzzDecodeTrees(f *testing.F) {
	mk := func(version uint8) []byte {
		t2 := trace.NewTree(4)
		t2.AddStack(0, "main", "hang")
		t3 := trace.NewTree(4)
		t3.AddStack(1, "main", "spin", "lock")
		b, err := encodeTrees(version, t2, t3)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	validV3 := mk(trace.WireV3)
	validV2 := mk(trace.WireV2)
	f.Add([]byte{})
	f.Add([]byte{0})                      // zero trees, empty v1 body (retired framing)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}) // zero trees, empty body
	f.Add([]byte{2})                      // claims two trees, carries none
	f.Add(validV3)
	f.Add(validV2)
	f.Add(validV3[:len(validV3)-3])              // truncated v3 tree body
	f.Add(validV2[:len(validV2)-5])              // truncated v2 tree body
	f.Add(validV3[:5])                           // truncated count padding
	f.Add(validV2[:12])                          // truncated length frame
	f.Add(append(bytes.Clone(validV3), 1, 2, 3)) // trailing bytes after v3
	f.Add(append(bytes.Clone(validV2), 1, 2, 3)) // trailing bytes after v2
	big := bytes.Clone(validV3)
	big[8], big[9], big[10], big[11] = 0xFF, 0xFF, 0xFF, 0x7F // huge frame length
	f.Add(big)
	dirtyPad := bytes.Clone(validV2)
	dirtyPad[3] = 0xAA // nonzero count padding
	f.Add(dirtyPad)
	f.Fuzz(func(t *testing.T, b []byte) {
		trees, err := decodeTrees(nil, b, trace.DecodeOpts{})
		if err != nil {
			return
		}
		version, err := bodyWireVersion(b)
		if err != nil {
			t.Fatalf("accepted body has no sniffable version: %v", err)
		}
		enc, err := encodeTrees(version, trees...)
		if err != nil {
			t.Fatalf("accepted trees failed to re-encode: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("decode/encode not canonical (v%d):\nin  %x\nout %x", version, b, enc)
		}
	})
}
