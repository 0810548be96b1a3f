package core

import (
	"bytes"
	"slices"
	"testing"

	"stat/internal/machine"
	"stat/internal/proto"
	"stat/internal/tbon"
	"stat/internal/topology"
	"stat/internal/trace"
)

// TestSamplerDifferentialAcrossTopologies is the acceptance differential
// for the batched sampling engine: real daemon payloads produced by the
// engine, folded through the production result filter over every
// adversarial topology shape, must yield a root result packet
// byte-identical to the legacy per-sample path — across both
// representations and both wire versions. Identical packets imply
// identical merged trees; we decode and Equal-check them anyway so a
// failure localizes.
func TestSamplerDifferentialAcrossTopologies(t *testing.T) {
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
	gathers := []struct {
		name string
		req  proto.GatherRequest
	}{
		{"both", proto.GatherRequest{Which: proto.TreeBoth}},
		{"3d-detail", proto.GatherRequest{Which: proto.Tree3D, Detail: true}},
	}
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		for _, version := range []uint8{2, 3} {
			for _, tc := range topos {
				topo, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				nLeaves := topo.NumLeaves()
				// Atlas runs 8 tasks per daemon, so this pins the tool's
				// daemon count to the test topology's leaf count.
				tasks := 8 * nLeaves

				runTool := func(s Sampler, greq proto.GatherRequest) []byte {
					tool, err := New(Options{
						Machine:        machine.Atlas(),
						Tasks:          tasks,
						Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
						BitVec:         mode,
						Samples:        3,
						ThreadsPerTask: 2,
						WireVersion:    version,
						Sampler:        s,
					})
					if err != nil {
						t.Fatal(err)
					}
					if tool.Daemons() != nLeaves {
						t.Fatalf("%s: tool has %d daemons, topology %d leaves", tc.name, tool.Daemons(), nLeaves)
					}
					daemons := make([]*daemon, nLeaves)
					for i := range daemons {
						daemons[i] = &daemon{
							leaf: i, tool: tool, state: stateSampled,
							samples: 3, threads: 2, epoch: 3, wireVersion: version,
						}
					}
					net := tbon.New(topo)
					leaf := func(i int) (*tbon.Lease, error) {
						return daemons[i].gatherPacket(greq)
					}
					out, _, err := net.ReduceNodeLeasedWith(tbon.ReduceOptions{}, leaf, tool.merge.resultFilter(false))
					if err != nil {
						t.Fatalf("%v/v%d/%s: %v", mode, version, tc.name, err)
					}
					return out
				}

				for _, g := range gathers {
					legacy := runTool(SamplerLegacy, g.req)
					batched := runTool(SamplerBatched, g.req)
					if !bytes.Equal(legacy, batched) {
						t.Errorf("%v/v%d/%s/%s: engine result packet differs from legacy path",
							mode, version, tc.name, g.name)
						continue
					}
					p, err := proto.Decode(batched)
					if err != nil {
						t.Fatal(err)
					}
					if p.Version != version {
						t.Errorf("%v/v%d/%s/%s: packet carries v%d", mode, version, tc.name, g.name, p.Version)
					}
					trees, err := decodeTrees(nil, p.Payload, trace.DecodeOpts{})
					if err != nil {
						t.Fatalf("%v/v%d/%s/%s: decode: %v", mode, version, tc.name, g.name, err)
					}
					for ti, tr := range trees {
						if err := tr.Validate(); err != nil {
							t.Errorf("%v/v%d/%s/%s: tree %d invalid: %v", mode, version, tc.name, g.name, ti, err)
						}
					}
				}
			}
		}
	}
}

// TestSamplerDifferentialFullSession runs complete sessions (attach →
// sample → gather → remap → classes) under both samplers and pins the
// final rank-ordered trees and equivalence classes against each other —
// the end-to-end form of the differential, progress check included.
func TestSamplerDifferentialFullSession(t *testing.T) {
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		base := Options{
			Machine:        machine.Atlas(),
			Tasks:          96,
			Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
			BitVec:         mode,
			Samples:        4,
			ThreadsPerTask: 2,
		}
		results := make([]*Result, 2)
		reports := make([]*ProgressReport, 2)
		for i, s := range []Sampler{SamplerLegacy, SamplerBatched} {
			opts := base
			opts.Sampler = s
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
			ptool, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if reports[i], err = ptool.ProgressCheck(); err != nil {
				t.Fatal(err)
			}
		}
		for _, pair := range []struct {
			name           string
			legacy, engine *trace.Tree
		}{
			{"2D", results[0].Tree2D, results[1].Tree2D},
			{"3D", results[0].Tree3D, results[1].Tree3D},
			{"progress-before", reports[0].Before, reports[1].Before},
			{"progress-after", reports[0].After, reports[1].After},
		} {
			if !pair.legacy.Equal(pair.engine) {
				t.Errorf("%v/%s: engine tree differs from legacy", mode, pair.name)
				continue
			}
			el, err := pair.legacy.MarshalBinaryV(trace.WireV2)
			if err != nil {
				t.Fatal(err)
			}
			ee, err := pair.engine.MarshalBinaryV(trace.WireV2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(el, ee) {
				t.Errorf("%v/%s: encodings differ", mode, pair.name)
			}
		}
		if len(results[0].Classes) != len(results[1].Classes) {
			t.Fatalf("%v: %d vs %d classes", mode, len(results[0].Classes), len(results[1].Classes))
		}
		if !reports[0].Stuck.Equal(reports[1].Stuck) {
			t.Errorf("%v: progress checks disagree on stuck tasks", mode)
		}
		// The engine's counters must be live on the batched run and silent
		// on the legacy one.
		if results[0].SampleStats.SampledStacks != 0 {
			t.Error("legacy run reported engine sampling counters")
		}
		ss := results[1].SampleStats
		wantStacks := int64(96 * 4 * 2) // tasks × samples × threads
		if ss.SampledStacks != wantStacks {
			t.Errorf("%v: SampledStacks = %d, want %d", mode, ss.SampledStacks, wantStacks)
		}
		if ss.PCsResolved == 0 || ss.PCCacheMisses == 0 {
			t.Errorf("%v: resolver/cache counters silent: %+v", mode, ss)
		}
	}
}

// TestSamplePhaseZeroAllocs is the acceptance guard for the batched
// engine: a steady-state daemon sampling round — walk every local stack,
// emit both trees, release — must not touch the heap at all. The legacy
// path allocated frames, trees and labels per sample; the engine's trie
// and its spans, the resolver cache and the emitted-node pool absorb all
// of it.
func TestSamplePhaseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	tool, err := New(Options{
		Machine:        machine.Atlas(),
		Tasks:          96,
		Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		BitVec:         Hierarchical,
		Samples:        5,
		ThreadsPerTask: 2,
		SampleWorkers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{leaf: 0, tool: tool, state: stateSampled, samples: 5, threads: 2, epoch: 5, wireVersion: 2}
	req := proto.GatherRequest{Which: proto.TreeBoth}
	cycle := func() {
		sb, err := d.sampleTrees(req)
		if err != nil {
			t.Fatal(err)
		}
		sb.release()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("steady-state sample phase allocates %v per round, want 0", n)
	}

	// The full leaf product — sampling plus the leased packet encode —
	// stays zero-alloc too, extending PR 3/4's guarantee through the new
	// engine.
	packetCycle := func() {
		lease, err := d.gatherPacket(req)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
	}
	for i := 0; i < 10; i++ {
		packetCycle()
	}
	if n := testing.AllocsPerRun(200, packetCycle); n != 0 {
		t.Errorf("steady-state gather packet cycle allocates %v per round, want 0", n)
	}

	// The live snapshot-emit pipeline (two walkers, so the prefetch cap
	// admits speculation) must hold the same guarantee: claim, seal,
	// background respawn, and concurrent emit all recycle walker-resident
	// state. The fixed epoch makes every speculation miss — the costlier
	// steady state, since it adds the inline re-walk.
	tool2, err := New(Options{
		Machine:        machine.Atlas(),
		Tasks:          96,
		Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		BitVec:         Hierarchical,
		Samples:        5,
		ThreadsPerTask: 2,
		SampleWorkers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	d2 := &daemon{leaf: 0, tool: tool2, state: stateSampled, samples: 5, threads: 2, epoch: 5, wireVersion: 2}
	overlapCycle := func() {
		lease, err := d2.gatherPacket(req)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
	}
	for i := 0; i < 10; i++ {
		overlapCycle()
	}
	if d2.pre == nil {
		t.Fatal("overlap pipeline did not leave a prefetch outstanding")
	}
	if n := testing.AllocsPerRun(200, overlapCycle); n != 0 {
		t.Errorf("steady-state overlapped gather cycle allocates %v per round, want 0", n)
	}
	d2.pre.Cancel()
	d2.pre = nil

	// Drifting legs: each cycle is a fresh sample command (the epoch
	// advances), so each cycle's stacks differ from the last cycle's; the
	// overlap's speculation now matches and is claimed, and the streaming
	// leg walks the daemon's keyed walker and ships delta frames. A cycle
	// that meets a call path the trie has not seen resolves its PC and
	// records a span, which may grow a span array, so each leg first warms
	// until a long run of cycles calls the resolver not at all.
	newDaemon := func(workers int) *daemon {
		tool, err := New(Options{
			Machine:        machine.Atlas(),
			Tasks:          96,
			Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
			BitVec:         Hierarchical,
			Samples:        5,
			ThreadsPerTask: 2,
			SampleWorkers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &daemon{leaf: 0, tool: tool, state: stateSampled, samples: 5, threads: 2, epoch: 5, wireVersion: 2}
	}
	for _, leg := range []struct {
		name    string
		workers int
		req     proto.GatherRequest
	}{
		{"quiesced", 1, req},
		{"overlapped", 2, req},
		{"keyed delta", 1, proto.GatherRequest{Which: proto.TreeBoth, Delta: true}},
	} {
		d := newDaemon(leg.workers)
		driftCycle := func() {
			d.epoch += d.samples
			lease, err := d.gatherPacket(leg.req)
			if err != nil {
				t.Fatal(err)
			}
			lease.Release()
		}
		for i, quiet := 0, 0; i < 5000 && quiet < 200; i++ {
			before := d.tool.sampler.Stats().PCsResolved
			driftCycle()
			if d.tool.sampler.Stats().PCsResolved == before {
				quiet++
			} else {
				quiet = 0
			}
		}
		if n := testing.AllocsPerRun(200, driftCycle); n != 0 {
			t.Errorf("drifting %s gather cycle allocates %v per round, want 0", leg.name, n)
		}
		if !stacksDrift(d) {
			t.Errorf("drifting %s leg: a cycle walks the previous cycle's stacks; the leg tests nothing", leg.name)
		}
		d.pre.Cancel()
	}
}

// stacksDrift reports whether the daemon's next sample command walks any
// stack that differs from the same (task, thread, sample) stack of its
// previous one.
func stacksDrift(d *daemon) bool {
	for _, rank := range d.tool.merge.taskMap[d.leaf] {
		for thread := 0; thread < d.threads; thread++ {
			for s := 0; s < d.samples; s++ {
				if !slices.Equal(d.tool.app.StackPCs(rank, thread, d.epoch+s),
					d.tool.app.StackPCs(rank, thread, d.epoch-d.samples+s)) {
					return true
				}
			}
		}
	}
	return false
}
