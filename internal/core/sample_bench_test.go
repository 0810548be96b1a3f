package core

import (
	"testing"

	"stat/internal/machine"
	"stat/internal/proto"
	"stat/internal/topology"
)

// BenchmarkSamplePhase measures one daemon's real gather-time sampling
// work — walk every local task's stack for the full sample count and
// build the 2D+3D prefix trees — through the batched direct-to-tree
// engine, at both label widths that matter: the
// hierarchical subtree-local width (128 tasks per BG/L VN daemon) and the
// original full-job width at the paper's 208K-task scale. The workload is
// the default hang population, so the daemon's tasks are the spinning
// barrier crowd whose stacks the engine's caches exploit. Gated in CI by
// cmd/benchgate against the committed baseline; the rows must also stay
// allocation-free (TestSamplePhaseZeroAllocs is the hard guard).
func BenchmarkSamplePhase(b *testing.B) {
	cases := []struct {
		name string
		opts Options
	}{
		{"hier-128wide", Options{
			Machine:  machine.BGL(),
			Mode:     machine.VN,
			Tasks:    16384,
			Topology: topology.Spec{Kind: topology.KindBGL2Deep},
			BitVec:   Hierarchical,
			Samples:  10,
		}},
		{"original-208Kwide", Options{
			Machine:  machine.BGL(),
			Mode:     machine.VN,
			Tasks:    212992,
			Topology: topology.Spec{Kind: topology.KindBGL2Deep},
			BitVec:   Original,
			Samples:  10,
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/engine", func(b *testing.B) {
			opts := tc.opts
			opts.SampleWorkers = 1
			tool, err := New(opts)
			if err != nil {
				b.Fatal(err)
			}
			// Daemon 0 of the VN task map serves 128 spinning ranks.
			d := &daemon{
				leaf: 0, tool: tool, state: stateSampled,
				samples: opts.Samples, threads: 1, epoch: opts.Samples,
				wireVersion: proto.MaxVersion,
			}
			req := proto.GatherRequest{Which: proto.TreeBoth}
			stacks := len(tool.TaskMap()[0]) * opts.Samples
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch, err := d.sampleTrees(req)
				if err != nil {
					b.Fatal(err)
				}
				batch.Release()
				// Each op is a fresh sample command, as in a real
				// session: the stacks drift from op to op.
				d.epoch += d.samples
			}
			b.ReportMetric(float64(stacks), "stacks/op")
		})
	}
}
