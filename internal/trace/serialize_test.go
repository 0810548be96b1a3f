package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTrip(t *testing.T) {
	tr := NewTree(10)
	tr.AddStack(0, "main", "PMPI_Barrier", "poll")
	tr.AddStack(1, "main", "do_SendOrStall")
	tr.AddStack(9, "main", "PMPI_Waitall", "progress", "poll")

	// A v1 capture (the reference encoder) decodes to the tree, and the
	// live encoding's size is exactly SerializedSizeV.
	b, err := refMarshalTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	if b2, err := tr.MarshalBinaryV(WireV2); err != nil || len(b2) != tr.SerializedSizeV(WireV2) {
		t.Errorf("v2 encode: %v, len %d, SerializedSizeV %d", err, len(b2), tr.SerializedSizeV(WireV2))
	}
	got, err := UnmarshalBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tr) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", got, tr)
	}
}

func TestMarshalEmptyTree(t *testing.T) {
	tr := NewTree(5)
	b, err := refMarshalTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tr) || got.NumTasks != 5 || got.NodeCount() != 0 {
		t.Errorf("empty tree round trip: %v", got)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	tr := NewTree(4)
	tr.AddStack(0, "main", "x")
	b, _ := refMarshalTree(tr)

	cases := map[string]func([]byte) []byte{
		"empty":      func([]byte) []byte { return nil },
		"bad magic":  func(b []byte) []byte { c := clone(b); c[0] = 'X'; return c },
		"truncated":  func(b []byte) []byte { return b[:len(b)-3] },
		"trailing":   func(b []byte) []byte { return append(clone(b), 0xFF) },
		"wide label": func(b []byte) []byte { c := clone(b); c[4] = 99; return c }, // numTasks no longer matches labels
	}
	for name, corrupt := range cases {
		if _, err := UnmarshalBinary(corrupt(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestUnmarshalRejectsHugeChildCount(t *testing.T) {
	tr := NewTree(1)
	tr.AddStack(0, "main")
	b, _ := refMarshalTree(tr)
	// The root's child count lives right after magic+numTasks+root node
	// header; instead of hunting the offset, just flip every u32-aligned
	// position to a huge value and require that none of the mutations is
	// accepted silently as valid.
	accepted := 0
	for off := 8; off+4 <= len(b); off++ {
		c := clone(b)
		c[off], c[off+1], c[off+2], c[off+3] = 0xFF, 0xFF, 0xFF, 0x7F
		if got, err := UnmarshalBinary(c); err == nil {
			// A mutation may legitimately decode if it hit label bits; it
			// must then still be a structurally valid tree.
			if got.Validate() != nil {
				accepted++
			}
		}
	}
	if accepted > 0 {
		t.Errorf("%d corrupt mutations decoded into invalid trees", accepted)
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

func TestSerializedSizeScalesWithWidth(t *testing.T) {
	// Same stacks, 100x task-space width → much larger payload. This is the
	// measurable core of Section V.
	small := NewTree(64)
	small.AddStack(0, "main", "a", "b")
	big := NewTree(6400)
	big.AddStack(0, "main", "a", "b")
	if big.SerializedSizeV(WireV2) < 10*small.SerializedSizeV(WireV2) {
		t.Errorf("wide tree %dB not ≫ narrow tree %dB",
			big.SerializedSizeV(WireV2), small.SerializedSizeV(WireV2))
	}
}

func TestQuickSerializeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 1+r.Intn(50))
		b, err := refMarshalTree(tr)
		if err != nil {
			return false
		}
		got, err := UnmarshalBinary(b)
		return err == nil && got.Equal(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestWriteDOT(t *testing.T) {
	tr := NewTree(1024)
	for task := 0; task < 1024; task++ {
		switch task {
		case 1:
			tr.AddStack(task, "_start_blrts", "main", "do_SendOrStall")
		case 2:
			tr.AddStack(task, "_start_blrts", "main", "PMPI_Waitall")
		default:
			tr.AddStack(task, "_start_blrts", "main", "PMPI_Barrier")
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteDOT(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph stat",
		`"_start_blrts"`,
		`"do_SendOrStall"`,
		"1022:[0,3-1023]", // the Figure 1 edge-label style
		"1:[1]",
		"1:[2]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTElidesLongRanges(t *testing.T) {
	tr := NewTree(4096)
	for task := 0; task < 4096; task += 2 { // every other task: long range list
		tr.AddStack(task, "main", "poll")
	}
	var buf bytes.Buffer
	if err := tr.WriteDOT(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ",...]") {
		t.Errorf("long range list not elided:\n%s", buf.String())
	}
}
