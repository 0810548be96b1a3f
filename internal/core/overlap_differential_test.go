package core

import (
	"bytes"
	"testing"

	"stat/internal/machine"
	"stat/internal/proto"
	"stat/internal/tbon"
	"stat/internal/topology"
)

// TestOverlapDifferentialAcrossTopologies is the acceptance differential
// for the snapshot-emit pipeline: multi-round gather sessions whose
// daemons emit each round's trees while already walking the next must
// produce root result packets byte-identical to the quiesced path —
// across every adversarial topology shape, both representations, and
// wire v2/v3. Round 1 pipelines cold (nothing to claim), rounds 2+
// claim the previous round's background walk, so both halves of the
// claim protocol are on the differential. The overlapped leg also runs
// under the multi-worker pool and its roomy-budget k-way configuration,
// where many daemons' pipelines interleave — under -race this doubles as
// the snapshot-stress test.
func TestOverlapDifferentialAcrossTopologies(t *testing.T) {
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
	const rounds = 3
	greq := proto.GatherRequest{Which: proto.TreeBoth}
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		for _, version := range []uint8{2, 3} {
			for _, tc := range topos {
				topo, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				nLeaves := topo.NumLeaves()
				tasks := 8 * nLeaves

				// runRounds plays a whole session: each round advances every
				// daemon's epoch (as a sample command would) and gathers
				// through the production result filter.
				runRounds := func(overlap OverlapMode, engine testEngine) [][]byte {
					tool, err := New(Options{
						Machine:        machine.Atlas(),
						Tasks:          tasks,
						Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
						BitVec:         mode,
						Samples:        3,
						ThreadsPerTask: 2,
						WireVersion:    version,
						Overlap:        overlap,
						// One walker per daemon plus a circulating spare, so
						// every daemon's prefetch fits under the pin cap and
						// rounds 2+ exercise the claim-hit path everywhere.
						SampleWorkers: nLeaves + 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					daemons := make([]*daemon, nLeaves)
					for i := range daemons {
						daemons[i] = &daemon{
							leaf: i, tool: tool, state: stateSampled,
							samples: 3, threads: 2, wireVersion: version,
						}
					}
					net := tbon.New(topo)
					leaf := func(i int) (*tbon.Lease, error) {
						return daemons[i].gatherPacket(greq)
					}
					outs := make([][]byte, 0, rounds)
					for round := 0; round < rounds; round++ {
						for _, dm := range daemons {
							dm.epoch += dm.samples
						}
						out, _, err := net.ReduceNodeLeasedWith(engine.reduceOpts(), leaf, tool.merge.resultFilter(false))
						if err != nil {
							t.Fatalf("%v/v%d/%s/%v round %d: %v", mode, version, tc.name, overlap, round, err)
						}
						outs = append(outs, append([]byte(nil), out...))
					}
					for _, dm := range daemons {
						dm.pre.Cancel()
						dm.pre = nil
					}
					if overlap == OverlapSnapshot {
						s := tool.sampler.Stats()
						if want := int64(nLeaves * rounds); s.Snapshots != want {
							t.Errorf("%v/v%d/%s: %d snapshots sealed, want %d", mode, version, tc.name, s.Snapshots, want)
						}
						if want := int64(nLeaves * (rounds - 1)); s.PrefetchedWalks != want {
							t.Errorf("%v/v%d/%s: %d walks claimed from prefetch, want %d",
								mode, version, tc.name, s.PrefetchedWalks, want)
						}
					}
					return outs
				}

				quiesced := runRounds(OverlapQuiesced, seqEngine)
				for _, engine := range allEngines {
					overlapped := runRounds(OverlapSnapshot, engine)
					for round := range quiesced {
						if !bytes.Equal(quiesced[round], overlapped[round]) {
							t.Errorf("%v/v%d/%s/engine=%v round %d: overlapped result packet differs from quiesced",
								mode, version, tc.name, engine, round)
						}
					}
				}
			}
		}
	}
}

// TestOverlapFullSession pins the end-to-end Run product — final
// rank-ordered trees, classes, and the model's overlap accounting —
// across the two overlap modes.
func TestOverlapFullSession(t *testing.T) {
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		base := Options{
			Machine:        machine.Atlas(),
			Tasks:          96,
			Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
			BitVec:         mode,
			Samples:        4,
			ThreadsPerTask: 2,
			SampleWorkers:  2,
		}
		results := make([]*Result, 2)
		for i, om := range []OverlapMode{OverlapQuiesced, OverlapSnapshot} {
			opts := base
			opts.Overlap = om
			tool, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if results[i], err = tool.MeasureMerge(); err != nil {
				t.Fatal(err)
			}
			if results[i].MergeErr != nil {
				t.Fatal(results[i].MergeErr)
			}
		}
		if !results[0].Tree2D.Equal(results[1].Tree2D) || !results[0].Tree3D.Equal(results[1].Tree3D) {
			t.Errorf("%v: overlapped session trees differ from quiesced", mode)
		}

		// Model accounting: both modes model the same steady-round walk,
		// only the snapshot pipeline earns a hidden share, and the hidden
		// share never exceeds either the walk or the drain it hides behind
		// (no double-counting into Total, which must stay mode-invariant).
		tq, to := results[0].Times, results[1].Times
		if tq.SampleSteady <= 0 || tq.SampleSteady != to.SampleSteady {
			t.Errorf("%v: SampleSteady quiesced %v vs overlapped %v", mode, tq.SampleSteady, to.SampleSteady)
		}
		if tq.SampleHidden != 0 {
			t.Errorf("%v: quiesced run hid %v walk seconds", mode, tq.SampleHidden)
		}
		if to.SampleHidden <= 0 {
			t.Errorf("%v: overlapped run hid nothing", mode)
		}
		if to.SampleHidden > to.SampleSteady || to.SampleHidden > to.Merge+to.Remap {
			t.Errorf("%v: SampleHidden %v exceeds steady walk %v or drain %v",
				mode, to.SampleHidden, to.SampleSteady, to.Merge+to.Remap)
		}
		if to.SteadyRound() >= to.SampleSteady+to.Merge+to.Remap {
			t.Errorf("%v: SteadyRound %v not shorter than the unoverlapped sum", mode, to.SteadyRound())
		}
		if tq.Total() != to.Total() {
			t.Errorf("%v: Total differs across overlap modes: %v vs %v", mode, tq.Total(), to.Total())
		}
	}
}

// TestOverlapFaultTolerantForcedQuiesced: a fault-tolerant gather may
// abandon leaf goroutines mid-flight, so the pipeline must not speculate
// there — no prefetch may outlive a round the session has given up on.
func TestOverlapFaultTolerantForcedQuiesced(t *testing.T) {
	tool, err := New(Options{
		Machine:        machine.Atlas(),
		Tasks:          64,
		Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		BitVec:         Hierarchical,
		Samples:        3,
		SampleWorkers:  4,
		FaultTolerant:  true,
		ThreadsPerTask: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tool.MeasureMerge()
	if err != nil {
		t.Fatal(err)
	}
	if res.MergeErr != nil {
		t.Fatal(res.MergeErr)
	}
	if res.SampleStats.PrefetchedWalks != 0 {
		t.Errorf("fault-tolerant session claimed %d prefetched walks", res.SampleStats.PrefetchedWalks)
	}
	if res.Times.SampleHidden != 0 {
		t.Errorf("fault-tolerant session modeled %v hidden walk seconds", res.Times.SampleHidden)
	}
}
