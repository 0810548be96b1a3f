// Package stat_test holds the benchmark harness: one benchmark per figure
// of the paper's evaluation (regenerating the figure's series via the
// statbench harness and reporting the headline modeled seconds), plus
// ablation benchmarks over the tool's design choices and raw
// data-structure benchmarks for the real in-memory work.
//
// Run everything:
//
//	go test -bench=. -benchmem
package stat_test

import (
	"fmt"
	"testing"

	"stat/internal/bitvec"
	"stat/internal/core"
	"stat/internal/emul"
	"stat/internal/machine"
	"stat/internal/mpisim"
	"stat/internal/statbench"
	"stat/internal/tbon"
	"stat/internal/topology"
	"stat/internal/trace"
)

func quickCfg() statbench.Config { return statbench.QuickConfig() }

// reportLast attaches the figure's largest-scale modeled time as a metric,
// so `go test -bench` output doubles as a summary of the reproduction.
func reportLast(b *testing.B, fig *statbench.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		for i := len(s.Points) - 1; i >= 0; i-- {
			if !s.Points[i].Failed {
				b.ReportMetric(s.Points[i].Seconds, "modeled_s/"+sanitize(s.Name))
				break
			}
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '(' || r == ')':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFig1PrefixTree builds and merges the 1024-task 3D
// trace/space/time tree of the hung ring app — the real data-structure
// work behind the paper's Figure 1.
func BenchmarkFig1PrefixTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := statbench.Fig1(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		if res.Tree3D.NodeCount() == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkFig2Startup regenerates Atlas startup (LaunchMON vs MRNet rsh).
func BenchmarkFig2Startup(b *testing.B) {
	var fig *statbench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = statbench.Fig2(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLast(b, fig)
}

// BenchmarkFig3StartupBGL regenerates BG/L startup across topologies,
// modes and control-system patch levels.
func BenchmarkFig3StartupBGL(b *testing.B) {
	var fig *statbench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = statbench.Fig3(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLast(b, fig)
}

// BenchmarkFig4MergeAtlas regenerates Atlas merge times across tree depths
// (original bit vectors). This runs the real prefix-tree merges.
func BenchmarkFig4MergeAtlas(b *testing.B) {
	var fig *statbench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = statbench.Fig4(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLast(b, fig)
}

// BenchmarkFig5MergeBGL regenerates BG/L merge times with the original bit
// vectors, including the 1-deep fan-in failure at 16,384 nodes.
func BenchmarkFig5MergeBGL(b *testing.B) {
	var fig *statbench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = statbench.Fig5(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLast(b, fig)
}

// BenchmarkFig6BitVectorOps measures the raw bit-vector operations of the
// Figure 6 illustration at job scale: full-width union versus subtree
// concat + front-end remap for one edge label at 208K tasks.
func BenchmarkFig6BitVectorOps(b *testing.B) {
	const n = 212992
	b.Run("original_union", func(b *testing.B) {
		x := bitvec.New(n)
		y := bitvec.New(n)
		for i := 0; i < n; i += 3 {
			y.Set(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := x.UnionWith(y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimized_concat", func(b *testing.B) {
		parts := make([]*bitvec.Vector, 1664)
		for i := range parts {
			parts[i] = bitvec.New(128)
			parts[i].Set(i % 128)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := bitvec.Concat(parts...)
			if v.Len() != 1664*128 {
				b.Fatal("bad width")
			}
		}
	})
	b.Run("frontend_remap", func(b *testing.B) {
		v := bitvec.New(n)
		for i := 0; i < n; i += 2 {
			v.Set(i)
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = (i*7919 + 13) % n
		}
		// 7919 is coprime with 212992, so perm is a permutation.
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := v.Remap(perm, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frontend_remap_fused", func(b *testing.B) {
		// The decode-fused formulation runMergePhase uses: a precompiled
		// permutation applied while the label materializes from its wire
		// bytes — one pass, arena-backed, no intermediate vector and no
		// second scattered-store sweep. Comparable work to frontend_remap
		// (same label, same permutation) minus the per-call validation,
		// the decode-then-remap double pass and the output allocation.
		v := bitvec.New(n)
		for i := 0; i < n; i += 2 {
			v.Set(i)
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = (i*7919 + 13) % n
		}
		r, err := bitvec.NewRemapper(perm, n)
		if err != nil {
			b.Fatal(err)
		}
		wire, err := v.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var arena bitvec.Arena
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := arena.RemapBinary(wire, r); err != nil {
				b.Fatal(err)
			}
			arena.Reset()
		}
	})
}

// BenchmarkFig7OptimizedMerge regenerates the headline comparison:
// original versus hierarchical bit vectors on BG/L up to 208K tasks.
func BenchmarkFig7OptimizedMerge(b *testing.B) {
	var fig *statbench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = statbench.Fig7(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLast(b, fig)
}

// BenchmarkFig8SamplingAtlas regenerates Atlas NFS-bound sampling.
func BenchmarkFig8SamplingAtlas(b *testing.B) {
	var fig *statbench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = statbench.Fig8(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLast(b, fig)
}

// BenchmarkFig9SamplingBGL regenerates BG/L sampling across topologies.
func BenchmarkFig9SamplingBGL(b *testing.B) {
	var fig *statbench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = statbench.Fig9(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLast(b, fig)
}

// BenchmarkFig10SBRS regenerates Atlas sampling with the binary relocation
// service (NFS vs Lustre vs SBRS).
func BenchmarkFig10SBRS(b *testing.B) {
	var fig *statbench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = statbench.Fig10(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLast(b, fig)
}

// --- Ablation benchmarks -------------------------------------------------

// BenchmarkMergeBitVecModes ablates the task-set representation at a fixed
// scale (BG/L CO, 16,384 tasks), measuring the real end-to-end reduction.
func BenchmarkMergeBitVecModes(b *testing.B) {
	for _, mode := range []core.BitVecMode{core.Original, core.Hierarchical} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tool, err := core.New(core.Options{
					Machine:  machine.BGL(),
					Mode:     machine.CO,
					Tasks:    16384,
					Topology: topology.Spec{Kind: topology.KindBGL2Deep},
					BitVec:   mode,
					Samples:  3,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := tool.MeasureMerge()
				if err != nil {
					b.Fatal(err)
				}
				if res.MergeErr != nil {
					b.Fatal(res.MergeErr)
				}
				b.ReportMetric(float64(res.FrontEndInBytes), "fe_bytes")
			}
		})
	}
}

// BenchmarkTopologySweep ablates analysis-tree depth at fixed scale.
func BenchmarkTopologySweep(b *testing.B) {
	specs := map[string]topology.Spec{
		"1-deep": {Kind: topology.KindFlat},
		"2-deep": {Kind: topology.KindBalanced, Depth: 2},
		"3-deep": {Kind: topology.KindBalanced, Depth: 3},
	}
	for name, spec := range specs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tool, err := core.New(core.Options{
					Machine:  machine.Atlas(),
					Tasks:    2048,
					Topology: spec,
					BitVec:   core.Original,
					Samples:  3,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := tool.MeasureMerge()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Times.Merge, "modeled_s")
			}
		})
	}
}

// BenchmarkThreadsExtension ablates the Section VII thread multiplier.
func BenchmarkThreadsExtension(b *testing.B) {
	for _, threads := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tool, err := core.New(core.Options{
					Machine:        machine.Atlas(),
					Tasks:          512,
					Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
					BitVec:         core.Hierarchical,
					ThreadsPerTask: threads,
					Samples:        3,
				})
				if err != nil {
					b.Fatal(err)
				}
				sec, _, err := tool.MeasureSample(true)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(sec, "modeled_s")
			}
		})
	}
}

// BenchmarkSessionMergeEngines compares whole merge phases on identical
// real workloads under the one-worker sequential fold and the default
// worker pool.
func BenchmarkSessionMergeEngines(b *testing.B) {
	for _, eng := range []struct {
		name    string
		workers int
	}{
		{"pipelined-w1", 1},
		{"pipelined", 0},
	} {
		b.Run(eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tool, err := core.New(core.Options{
					Machine:       machine.Atlas(),
					Tasks:         1024,
					Topology:      topology.Spec{Kind: topology.KindBalanced, Depth: 2},
					BitVec:        core.Hierarchical,
					Samples:       3,
					ReduceWorkers: eng.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tool.MeasureMerge(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReduceEngines is the reduction-engine shootout: identical
// leaf payloads and an identical CPU-bearing associative filter, swept
// across topology shapes, worker counts and byte budgets. On a
// multi-core host the worker pool's wide-topology rows should beat seq
// by up to the core count (the filter work on sibling subtrees is
// independent); the budget rows show what a memory cap costs, and — with
// room to defer — what folding each node's children in one call saves.
// Chain is the adversarial floor: no available parallelism, so the pool
// should match seq there, not lose to it.
//
// Smoke run (CI): go test -bench=ReduceEngines -benchtime=1x
func BenchmarkReduceEngines(b *testing.B) {
	const payloadBytes = 16 << 10
	// xorFoldFilter is associative and commutative over ordered inputs:
	// output = elementwise XOR, sized to the widest child. CPU is linear
	// in input bytes and output stays payload-sized up the tree — the
	// shape of a well-behaved merge.
	xorFoldFilter := tbon.BytesFilter(func(children [][]byte) ([]byte, error) {
		width := 0
		for _, c := range children {
			if len(c) > width {
				width = len(c)
			}
		}
		out := make([]byte, width)
		for _, c := range children {
			for i, v := range c {
				out[i] ^= v
			}
		}
		return out, nil
	})
	topos := []struct {
		name  string
		build func() (*topology.Tree, error)
	}{
		{"wide-2deep-256", func() (*topology.Tree, error) { return topology.Balanced(2, 256) }},
		{"3deep-512", func() (*topology.Tree, error) { return topology.Balanced(3, 512) }},
		{"ragged", func() (*topology.Tree, error) { return topology.Ragged(42, 3, 8) }},
		{"chain-8", func() (*topology.Tree, error) { return topology.Chain(8) }},
	}
	engines := []struct {
		name string
		opts tbon.ReduceOptions
	}{
		{"seq", tbon.ReduceOptions{Workers: 1}},
		{"pipelined", tbon.ReduceOptions{}},
		{"pipelined-budget=1MiB", tbon.ReduceOptions{BudgetBytes: 1 << 20}},
		{"pipelined-budget=64KiB", tbon.ReduceOptions{BudgetBytes: 64 << 10}},
	}
	for _, tc := range topos {
		topo, err := tc.build()
		if err != nil {
			b.Fatal(err)
		}
		net := tbon.New(topo)
		payloads := make([][]byte, topo.NumLeaves())
		for i := range payloads {
			payloads[i] = make([]byte, payloadBytes)
			for j := range payloads[i] {
				payloads[i][j] = byte(i*31 + j)
			}
		}
		leaf := func(i int) ([]byte, error) { return payloads[i], nil }
		for _, eng := range engines {
			b.Run(tc.name+"/"+eng.name, func(b *testing.B) {
				b.SetBytes(int64(topo.NumLeaves()) * payloadBytes)
				var peak int64
				for i := 0; i < b.N; i++ {
					_, stats, err := net.ReduceWith(eng.opts, leaf, xorFoldFilter)
					if err != nil {
						b.Fatal(err)
					}
					if stats.PeakInFlightBytes > peak {
						peak = stats.PeakInFlightBytes
					}
				}
				if peak > 0 {
					b.ReportMetric(float64(peak), "peak_inflight_bytes")
				}
			})
		}
	}
}

// BenchmarkEmulShapeSweep runs the STATBench-style emulator over the
// design-space ablations: equivalence-class count and stack depth, in
// both representations.
func BenchmarkEmulShapeSweep(b *testing.B) {
	model := func() tbon.TimingModel {
		m := machine.BGL()
		return tbon.TimingModel{Link: m.TreeLink, CPU: m.MergeCPU, ConstSec: m.MergeConstSec}
	}
	for _, classes := range []int{4, 64, 1024} {
		for _, hier := range []bool{false, true} {
			name := fmt.Sprintf("classes=%d/original", classes)
			if hier {
				name = fmt.Sprintf("classes=%d/hierarchical", classes)
			}
			b.Run(name, func(b *testing.B) {
				spec := emul.Spec{Tasks: 8192, Depth: 8, Branch: 4, EqClasses: classes, Seed: 17}
				for i := 0; i < b.N; i++ {
					res, err := emul.Run(spec, 128, topology.Spec{Kind: topology.KindBGL2Deep}, hier, model())
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.ModeledSec, "modeled_s")
					b.ReportMetric(float64(res.FrontEndInBytes), "fe_bytes")
				}
			})
		}
	}
}

// --- Raw data-structure benchmarks ---------------------------------------

// BenchmarkTreeMergeUnion measures the real union merge of two daemon-sized
// trees with full-job-width labels (the per-filter work in original mode).
func BenchmarkTreeMergeUnion(b *testing.B) {
	app, err := mpisim.NewRing(4096)
	if err != nil {
		b.Fatal(err)
	}
	build := func(lo int) *trace.Tree {
		t := trace.NewTree(4096)
		for task := lo; task < lo+64; task++ {
			for s := 0; s < 3; s++ {
				t.AddStack(task, app.StackFuncs(task, 0, s)...)
			}
		}
		return t
	}
	src := build(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := build(0)
		if err := trace.MergeUnion(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeMergeConcat measures the concatenation merge of 26
// subtree-local trees (one BG/L communication process's filter work in
// hierarchical mode) on a warm codec, as the filters run it.
func BenchmarkTreeMergeConcat(b *testing.B) {
	app, err := mpisim.NewRing(4096)
	if err != nil {
		b.Fatal(err)
	}
	var parts []*trace.Tree
	for d := 0; d < 26; d++ {
		t := trace.NewTree(64)
		for local := 0; local < 64; local++ {
			task := d*64 + local
			for s := 0; s < 3; s++ {
				t.AddStack(local, app.StackFuncs(task, 0, s)...)
			}
		}
		parts = append(parts, t)
	}
	c := trace.NewCodec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := c.MergeConcat(parts...)
		if m.NumTasks != 26*64 {
			b.Fatal("bad merge")
		}
		m.Release()
	}
}

// BenchmarkTreeSerialize measures the wire encode/decode of a daemon
// payload in both representations and both live wire formats. The
// wire_bytes metric is what each format ships at BG/L widths: STR2's
// dense labels versus STR3's adaptive containers.
func BenchmarkTreeSerialize(b *testing.B) {
	app, err := mpisim.NewRing(212992)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		width int
	}{
		{"original_208K_wide", 212992},
		{"hierarchical_128_wide", 128},
	} {
		for _, version := range []struct {
			name string
			v    uint8
		}{
			{"_v2", trace.WireV2},
			{"_v3", trace.WireV3},
		} {
			b.Run(mode.name+version.name, func(b *testing.B) {
				t := trace.NewTree(mode.width)
				for local := 0; local < 128; local++ {
					idx := local
					for s := 0; s < 3; s++ {
						t.AddStack(idx, app.StackFuncs(local, 0, s)...)
					}
				}
				data, err := t.MarshalBinaryV(version.v)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					enc, err := t.MarshalBinaryV(version.v)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := trace.UnmarshalBinary(enc); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(data)), "wire_bytes")
			})
		}
	}
}

// BenchmarkLabelV3 measures the STR3 label kernels against their dense
// (v1/v2) counterparts at the paper's full BG/L width (208K tasks in VN
// mode) and at the million-task target, on run-structured populations —
// the shape prefix-tree path nodes carry. encode is the freeze-time
// container choice + payload write; merge is the concatenation of 32
// child labels at precomputed rank offsets (extent append vs word blit);
// remap is the wire-to-front-end-order decode fused with a compiled
// permutation. Gated in CI by cmd/benchgate: the run-container rows must
// stay at least as fast as the dense rows at 208K (the ISSUE 7
// acceptance bar), which they clear by orders of magnitude because the
// compressed kernels touch O(extents) data instead of O(width/64) words.
func BenchmarkLabelV3(b *testing.B) {
	for _, w := range []struct {
		name  string
		width int
	}{
		{"208K", 212992},
		{"1M", 1 << 20},
	} {
		width := w.width
		// The run population: one extent spanning 3/4 of the job,
		// offset so no kernel can special-case "starts at zero".
		runSet := bitvec.NewRunSet(width, []bitvec.Extent{{Start: uint32(width / 8), Count: uint32(width / 4 * 3)}})
		dense := runSet.Clone()

		b.Run("encode/run_"+w.name, func(b *testing.B) {
			buf := make([]byte, bitvec.Label3Size(runSet))
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bitvec.PutLabel3(buf, runSet)
			}
			b.ReportMetric(float64(len(buf)), "wire_bytes")
		})
		b.Run("encode/dense_"+w.name, func(b *testing.B) {
			buf := make([]byte, dense.SerializedSize())
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dense.PutBinary(buf)
			}
			b.ReportMetric(float64(len(buf)), "wire_bytes")
		})

		// 32 children, each the full population of its width/32 slice —
		// what an interior node concatenates during a hierarchical merge.
		const fanIn = 32
		cw := width / fanIn
		childSet := bitvec.NewRunSet(cw, []bitvec.Extent{{Start: 0, Count: uint32(cw)}})
		childVec := childSet.Clone()
		b.Run("merge/run_"+w.name, func(b *testing.B) {
			extents := make([]bitvec.Extent, 0, fanIn)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				extents = extents[:0]
				for c := 0; c < fanIn; c++ {
					extents = childSet.AppendExtents(extents, c*cw)
				}
			}
			if len(extents) != 1 { // adjacent full slices coalesce
				b.Fatalf("concat produced %d extents", len(extents))
			}
		})
		b.Run("merge/dense_"+w.name, func(b *testing.B) {
			dst := bitvec.New(width)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < fanIn; c++ {
					childVec.BlitInto(dst, c*cw)
				}
			}
		})

		// Remap through a rotation permutation: the front-end reorder
		// fused into decode. The arena recycles its slabs across
		// iterations via Reset, as the production codec does per filter.
		perm := make([]int, width)
		for i := range perm {
			perm[i] = (i + width/3) % width
		}
		remapper, err := bitvec.NewRemapper(perm, width)
		if err != nil {
			b.Fatal(err)
		}
		runWire := make([]byte, bitvec.Label3Size(runSet))
		bitvec.PutLabel3(runWire, runSet)
		denseWire := make([]byte, dense.SerializedSize())
		dense.PutBinary(denseWire)
		var arena bitvec.Arena
		b.Run("remap/run_"+w.name, func(b *testing.B) {
			b.SetBytes(int64(len(runWire)))
			for i := 0; i < b.N; i++ {
				arena.Reset()
				if _, _, err := arena.RemapLabel3(runWire, remapper); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("remap/dense_"+w.name, func(b *testing.B) {
			b.SetBytes(int64(len(denseWire)))
			for i := 0; i < b.N; i++ {
				arena.Reset()
				if _, _, err := arena.RemapBinary(denseWire, remapper); err != nil {
					b.Fatal(err)
				}
			}
		})

		if w.width != 1<<20 {
			continue
		}
		// The permutation the front end really remaps a million-task
		// round through: machine.TaskMap's per-daemon rank lists
		// concatenated, 8,192 daemons of 128 ranks dealt round-robin. It
		// has no slope-1 stretch at all (the rotation above is one long
		// stretch), so only its block period keeps the run remap off
		// per-bit stores.
		var tmPerm []int
		for _, ranks := range machine.BGL().TaskMap(width, 8192) {
			tmPerm = append(tmPerm, ranks...)
		}
		taskMap, err := bitvec.NewRemapper(tmPerm, width)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("remap/run_1M_taskmap", func(b *testing.B) {
			b.SetBytes(int64(len(runWire)))
			for i := 0; i < b.N; i++ {
				arena.Reset()
				if _, _, err := arena.RemapLabel3(runWire, taskMap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStackSampling measures the real per-task stack walk + local
// merge rate (what one daemon does 10x per task per sample).
func BenchmarkStackSampling(b *testing.B) {
	app, err := mpisim.NewRing(8192)
	if err != nil {
		b.Fatal(err)
	}
	tree := trace.NewTree(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := i % 8192
		tree.AddStack(task, app.StackFuncs(task, 0, i/8192)...)
	}
}

// BenchmarkTBONReduceOverlay measures the raw overlay on a 256-leaf,
// 2-deep tree with a pass-through filter.
func BenchmarkTBONReduceOverlay(b *testing.B) {
	topo, err := topology.Balanced(2, 256)
	if err != nil {
		b.Fatal(err)
	}
	net := tbon.New(topo)
	payload := make([]byte, 1024)
	// Ownership of a leaf buffer transfers to the engine, so each call
	// hands out its own copy rather than sharing one slice.
	leaf := func(int) ([]byte, error) { return append([]byte(nil), payload...), nil }
	filter := func(children []*tbon.Lease) (*tbon.Lease, error) {
		children[0].Retain()
		return children[0], nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := net.ReduceWith(tbon.ReduceOptions{}, leaf, filter); err != nil {
			b.Fatal(err)
		}
	}
}
