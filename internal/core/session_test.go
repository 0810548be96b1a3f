package core

import (
	"strings"
	"testing"

	"stat/internal/machine"
	"stat/internal/proto"
	"stat/internal/topology"
	"stat/internal/trace"
)

func newTestTool(t *testing.T, tasks int) *Tool {
	t.Helper()
	tool, err := New(Options{
		Machine:  machine.Atlas(),
		Tasks:    tasks,
		Topology: topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		BitVec:   Hierarchical,
		Samples:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tool
}

func TestSessionFullCycle(t *testing.T) {
	tool := newTestTool(t, 64)
	s := tool.newSession()
	if err := s.attach(); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := s.sample(3, 1); err != nil {
		t.Fatalf("sample: %v", err)
	}
	g, err := s.gather(proto.TreeBoth, false, false)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	if g.live != nil {
		t.Errorf("fault-free gather reported a liveness set")
	}
	if g.version != proto.MaxVersion {
		t.Errorf("negotiated wire version %d, want %d", g.version, proto.MaxVersion)
	}
	if g.stats.Packets == 0 {
		t.Error("gather recorded no traffic")
	}
	trees, err := decodeTrees(nil, g.payload, trace.DecodeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("gather(TreeBoth) returned %d trees", len(trees))
	}
	if trees[1].NodeCount() < trees[0].NodeCount() {
		t.Errorf("3D tree (%d nodes) smaller than 2D (%d)", trees[1].NodeCount(), trees[0].NodeCount())
	}
	if err := s.detach(); err != nil {
		t.Fatalf("detach: %v", err)
	}
}

func TestSessionGatherSingleTree(t *testing.T) {
	tool := newTestTool(t, 32)
	s := tool.newSession()
	if err := s.attach(); err != nil {
		t.Fatal(err)
	}
	if err := s.sample(2, 1); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []proto.TreeKind{proto.Tree2D, proto.Tree3D} {
		g, err := s.gather(kind, false, false)
		if err != nil {
			t.Fatalf("gather(%d): %v", kind, err)
		}
		trees, err := decodeTrees(nil, g.payload, trace.DecodeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(trees) != 1 {
			t.Errorf("gather(%d) returned %d trees, want 1", kind, len(trees))
		}
		if trees[0].NumTasks != 32 {
			t.Errorf("gather(%d) width %d", kind, trees[0].NumTasks)
		}
	}
}

func TestSessionProtocolStateMachine(t *testing.T) {
	tool := newTestTool(t, 32)

	// Sample before attach fails with a daemon-attributed error.
	s := tool.newSession()
	err := s.sample(3, 1)
	if err == nil || !strings.Contains(err.Error(), "daemon") {
		t.Errorf("sample before attach = %v, want daemon state error", err)
	}

	// Gather before sample fails.
	s2 := tool.newSession()
	if err := s2.attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.gather(proto.TreeBoth, false, false); err == nil {
		t.Error("gather before sample succeeded")
	}

	// Detach before attach fails.
	s3 := tool.newSession()
	if err := s3.detach(); err == nil {
		t.Error("detach before attach succeeded")
	}

	// Re-attach after detach is legal (a second STAT session on the same
	// job, as the paper's interactive usage does).
	s4 := tool.newSession()
	for round := 0; round < 2; round++ {
		if err := s4.attach(); err != nil {
			t.Fatalf("round %d attach: %v", round, err)
		}
		if err := s4.sample(2, 1); err != nil {
			t.Fatalf("round %d sample: %v", round, err)
		}
		if err := s4.detach(); err != nil {
			t.Fatalf("round %d detach: %v", round, err)
		}
	}
}

func TestSessionRejectsZeroSampleRequest(t *testing.T) {
	tool := newTestTool(t, 32)
	s := tool.newSession()
	if err := s.attach(); err != nil {
		t.Fatal(err)
	}
	if err := s.sample(0, 1); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestEncodeDecodeTrees(t *testing.T) {
	tool := newTestTool(t, 16)
	res, err := tool.MeasureMerge()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encodeTrees(trace.WireV2, res.Tree2D, res.Tree3D)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeTrees(nil, enc, trace.DecodeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !back[0].Equal(res.Tree2D) || !back[1].Equal(res.Tree3D) {
		t.Error("tree list round trip mismatch")
	}
	// Corruption is rejected.
	if _, err := decodeTrees(nil, enc[:len(enc)-2], trace.DecodeOpts{}); err == nil {
		t.Error("truncated tree list accepted")
	}
	if _, err := decodeTrees(nil, nil, trace.DecodeOpts{}); err == nil {
		t.Error("empty tree list accepted")
	}
	if _, err := decodeTrees(nil, append(clone(enc), 0xEE), trace.DecodeOpts{}); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// encodeTrees encodes a whole-tree body (see encodeFramesInto) into a
// fresh buffer.
func encodeTrees(version uint8, trees ...*trace.Tree) ([]byte, error) {
	return encodeFramesInto(nil, version, false, trees...)
}
