package core

import (
	"bytes"
	"math/rand"
	"testing"

	"stat/internal/bitvec"
	"stat/internal/machine"
	"stat/internal/tbon"
	"stat/internal/topology"
	"stat/internal/trace"
)

// copyingMergeFilter mirrors mergeFilter's semantics with every zero-copy
// and pooling mechanism disabled: a fresh codec per call, the copying
// decode, the package-level (heap-allocating) MergeConcat, and a fresh
// output buffer. It is the reference side of the aliasing-vs-copying
// differential: if the leased-buffer path ever corrupts or reorders a
// byte, the two sides diverge.
func copyingMergeFilter(hierarchical bool, version uint8) tbon.Filter {
	return tbon.BytesFilter(func(children [][]byte) ([]byte, error) {
		codec := trace.NewCodec()
		lists := make([][]*trace.Tree, len(children))
		for i, c := range children {
			var err error
			lists[i], err = decodeTrees(nil, c, trace.DecodeOpts{Codec: codec})
			if err != nil {
				return nil, err
			}
		}
		merged := make([]*trace.Tree, len(lists[0]))
		for ti := range merged {
			if hierarchical {
				parts := make([]*trace.Tree, len(lists))
				for ci := range lists {
					parts[ci] = lists[ci][ti]
				}
				merged[ti] = trace.NewCodec().MergeConcat(parts...)
			} else {
				acc := lists[0][ti]
				for ci := 1; ci < len(lists); ci++ {
					if err := trace.MergeUnion(acc, lists[ci][ti]); err != nil {
						return nil, err
					}
				}
				merged[ti] = acc
			}
		}
		out, err := encodeTrees(version, merged...)
		if err != nil {
			return nil, err
		}
		for _, list := range lists {
			for _, tr := range list {
				tr.Release()
			}
		}
		if hierarchical {
			for _, tr := range merged {
				tr.Release()
			}
		}
		return out, nil
	})
}

// TestAliasingDecodeMatchesCopyingAcrossEngines runs the same reduction
// twice — once through the production filter (zero-copy aliasing decode,
// arena merge, pooled buffers) and once through the copying reference
// filter — for every engine, both bit-vector modes, and the adversarial
// topology shapes, asserting byte-identical wire payloads at the root.
// On v2 both modes must actually alias: hierarchical mode every child,
// original mode every child but each fold's accumulator.
func TestAliasingDecodeMatchesCopyingAcrossEngines(t *testing.T) {
	topos := []struct {
		name  string
		build func() (*topology.Tree, error)
	}{
		{"flat", func() (*topology.Tree, error) { return topology.Flat(9) }},
		{"chain", func() (*topology.Tree, error) { return topology.Chain(5) }},
		{"ragged", func() (*topology.Tree, error) { return topology.Ragged(42, 3, 5) }},
		{"balanced", func() (*topology.Tree, error) { return topology.Balanced(2, 16) }},
		{"bgl", func() (*topology.Tree, error) { return topology.BGL2Deep(32) }},
	}
	engines := []struct {
		name string
		opts tbon.ReduceOptions
	}{
		{"seq", seqEngine.reduceOpts()},
		{"concurrent", concurrentEngine.reduceOpts()},
		{"pipelined", pipelinedEngine.reduceOpts()},
		{"pipelined-w4", tbon.ReduceOptions{Workers: 4}},
		{"pipelined-1B", tbon.ReduceOptions{BudgetBytes: 1}},
	}
	// Odd-length names vary every node's padding.
	funcs := []string{"m", "ab", "xyz", "solve", "mpi_wait_all", "io"}

	for _, version := range []uint8{trace.WireV2, trace.WireV3} {
		for _, mode := range []BitVecMode{Original, Hierarchical} {
			tool, err := New(Options{
				Machine:  machine.Atlas(),
				Tasks:    96,
				Topology: topology.Spec{Kind: topology.KindBalanced, Depth: 2},
				BitVec:   mode,
				Samples:  3,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range topos {
				topo, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(len(tc.name))*1543 + int64(mode)))
				nLeaves := topo.NumLeaves()
				widths := make([]int, nLeaves)
				total := 0
				for i := range widths {
					widths[i] = 1 + rng.Intn(6)
					total += widths[i]
				}
				leafBodies := make([][]byte, nLeaves)
				off := 0
				for i := range leafBodies {
					w, base := widths[i], 0
					if mode == Original {
						w, base = total, off
					}
					t2, t3 := trace.NewTree(w), trace.NewTree(w)
					for local := 0; local < widths[i]; local++ {
						task := local
						if mode == Original {
							task = base + local
						}
						for s := 0; s < 1+rng.Intn(3); s++ {
							depth := 1 + rng.Intn(4)
							fs := make([]string, depth)
							for d := range fs {
								fs[d] = funcs[rng.Intn(len(funcs))]
							}
							t2.AddStack(task, fs...)
							t3.AddStack(task, append(fs, "leaffn")...)
						}
					}
					off += widths[i]
					body, err := encodeTrees(version, t2, t3)
					if err != nil {
						t.Fatal(err)
					}
					leafBodies[i] = body
				}

				leaf := func(i int) ([]byte, error) { return leafBodies[i], nil }
				net := tbon.New(topo)
				production := tool.merge.mergeFilter()
				reference := copyingMergeFilter(mode != Original, version)
				for _, eng := range engines {
					want, _, err := net.ReduceWith(eng.opts, leaf, reference)
					if err != nil {
						t.Fatalf("v%d/%v/%s/%s copying: %v", version, mode, tc.name, eng.name, err)
					}
					got, _, err := net.ReduceWith(eng.opts, leaf, production)
					if err != nil {
						t.Fatalf("v%d/%v/%s/%s aliasing: %v", version, mode, tc.name, eng.name, err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("v%d/%v/%s/%s: aliasing filter output differs from copying filter",
							version, mode, tc.name, eng.name)
					}
				}
			}
			if bitvec.HostLittleEndian() {
				hits, misses := tool.merge.aliasHits.Load(), tool.merge.aliasMisses.Load()
				if hits == 0 || misses != 0 {
					t.Errorf("v%d/%v: %d alias hits, %d misses; want hits and no misses", version, mode, hits, misses)
				}
			}
		}
	}
}
