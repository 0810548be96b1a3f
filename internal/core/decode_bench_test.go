package core

import (
	"testing"

	"stat/internal/machine"
	"stat/internal/mpisim"
	"stat/internal/proto"
	"stat/internal/topology"
)

// BenchmarkDecodeResult times the front end's serial root decode of one
// million-task gather: the merged body of both trees decoding with the
// rank-order remap fused in (merger.decodeResult). The job is the
// sessionbench oneshot-1m shape — 1,048,576 tasks on 8,192 daemons of
// 128 ranks each, dealt round-robin by machine.TaskMap, three-deep tree,
// v3 labels — so the run containers remap through the task map's block
// period. The gather runs once; only the decode is timed.
func BenchmarkDecodeResult(b *testing.B) {
	const tasks = 1 << 20
	app, err := mpisim.NewRing(tasks)
	if err != nil {
		b.Fatal(err)
	}
	tool, err := New(Options{
		Machine:    machine.BGLScaled(5),
		Mode:       machine.VN,
		BGLPatched: true,
		Tasks:      tasks,
		Topology:   topology.Spec{Kind: topology.KindBalanced, Depth: 3},
		BitVec:     Hierarchical,
		Samples:    2,
		App:        app,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := tool.newSession()
	if err := s.attach(); err != nil {
		b.Fatal(err)
	}
	if err := s.sample(2, 1); err != nil {
		b.Fatal(err)
	}
	g, err := s.gather(proto.TreeBoth, false, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.detach(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(g.payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trees, err := tool.merge.decodeResult(g.payload, g.live)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range trees {
			t.Release()
		}
	}
}
