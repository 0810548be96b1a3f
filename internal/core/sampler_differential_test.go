package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"stat/internal/machine"
	"stat/internal/proto"
	"stat/internal/stackwalk"
	"stat/internal/tbon"
	"stat/internal/topology"
	"stat/internal/trace"
)

// referenceTrees is the per-sample loop the batched engine replaced, kept
// here as the differential reference: resolve every sample's frames
// through a stackwalk.Walker and fold each trace into fresh trees with
// Tree.Add. The rank at local position i sets bit index(i, rank); the 3D
// tree takes every sample from base on, the 2D tree each task's last.
func referenceTrees(tool *Tool, ranks []int, index func(local, rank int) int,
	width, base, samples, threads int, detail bool) (t2, t3 *trace.Tree) {
	t2, t3 = trace.NewTree(width), trace.NewTree(width)
	walker := stackwalk.NewWalker(tool.app, tool.symtab)
	for local, rank := range ranks {
		for thread := 0; thread < threads; thread++ {
			for s := 0; s < samples; s++ {
				var frames []trace.Frame
				if detail {
					frames = walker.SampleDetailed(rank, thread, base+s)
				} else {
					frames = walker.Sample(rank, thread, base+s)
				}
				tr := trace.Trace{Task: index(local, rank), Frames: frames}
				t3.Add(tr)
				if s == samples-1 {
					t2.Add(tr)
				}
			}
		}
	}
	return t2, t3
}

// referencePacket is daemon.gatherPacket with the reference loop in
// place of the engine: the daemon's trees for req, encoded and minted by
// the same encodeFramesInto/mintPacket calls.
func referencePacket(d *daemon, req proto.GatherRequest) (*tbon.Lease, error) {
	ranks := d.tool.merge.taskMap[d.leaf]
	width, index := len(ranks), func(local, rank int) int { return local }
	if d.tool.opts.BitVec == Original {
		width, index = d.tool.opts.Tasks, func(local, rank int) int { return rank }
	}
	t2, t3 := referenceTrees(d.tool, ranks, index, width, d.epoch-d.samples, d.samples, d.threads, req.Detail)
	defer t2.Release()
	defer t3.Release()
	trees := []*trace.Tree{t2, t3}
	switch req.Which {
	case proto.Tree2D:
		trees = trees[:1]
	case proto.Tree3D:
		trees = trees[1:]
	}
	buf := outBufs.Get(proto.HeaderSize + encodedTreesSize(d.wireVersion, trees))
	packet, err := encodeFramesInto(buf[:proto.HeaderSize], d.wireVersion, false, trees...)
	if err != nil {
		return nil, err
	}
	return mintPacket(packet, d.wireVersion, proto.MsgResult), nil
}

// differentialTopologies are the adversarial overlay shapes the sampler
// differentials fold daemon payloads through.
var differentialTopologies = []struct {
	name  string
	build func() (*topology.Tree, error)
}{
	{"flat", func() (*topology.Tree, error) { return topology.Flat(9) }},
	{"chain", func() (*topology.Tree, error) { return topology.Chain(5) }},
	{"ragged", func() (*topology.Tree, error) { return topology.Ragged(42, 3, 5) }},
	{"balanced", func() (*topology.Tree, error) { return topology.Balanced(2, 16) }},
	{"bgl", func() (*topology.Tree, error) { return topology.BGL2Deep(32) }},
}

// differentialTool builds a tool whose daemon count equals the test
// topology's leaf count (Atlas runs 8 tasks per daemon), and its daemons,
// attached at version and sampled for 3 samples × 2 threads.
func differentialTool(t *testing.T, topo *topology.Tree, mode BitVecMode, version uint8, sampleWorkers int) (*Tool, []*daemon) {
	t.Helper()
	nLeaves := topo.NumLeaves()
	tool, err := New(Options{
		Machine:        machine.Atlas(),
		Tasks:          8 * nLeaves,
		Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		BitVec:         mode,
		Samples:        3,
		ThreadsPerTask: 2,
		WireVersion:    version,
		SampleWorkers:  sampleWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tool.Daemons() != nLeaves {
		t.Fatalf("tool has %d daemons, topology %d leaves", tool.Daemons(), nLeaves)
	}
	daemons := make([]*daemon, nLeaves)
	for i := range daemons {
		daemons[i] = &daemon{
			leaf: i, tool: tool, state: stateSampled,
			samples: 3, threads: 2, wireVersion: version,
		}
	}
	return tool, daemons
}

// TestSamplerDifferentialAcrossTopologies is the acceptance differential
// for the batched sampling engine: real daemon payloads produced by the
// engine, folded through the production result filter over every
// adversarial topology shape, must yield a root result packet
// byte-identical to the reference loop's — across both representations
// and both wire versions. Identical packets imply identical merged trees;
// we decode and validate them anyway so a failure localizes.
func TestSamplerDifferentialAcrossTopologies(t *testing.T) {
	gathers := []struct {
		name string
		req  proto.GatherRequest
	}{
		{"both", proto.GatherRequest{Which: proto.TreeBoth}},
		{"3d-detail", proto.GatherRequest{Which: proto.Tree3D, Detail: true}},
	}
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		for _, version := range []uint8{2, 3} {
			for _, tc := range differentialTopologies {
				topo, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				runTool := func(reference bool, greq proto.GatherRequest) []byte {
					tool, daemons := differentialTool(t, topo, mode, version, 0)
					for _, dm := range daemons {
						dm.epoch = dm.samples
					}
					leaf := func(i int) (*tbon.Lease, error) {
						if reference {
							return referencePacket(daemons[i], greq)
						}
						return daemons[i].gatherPacket(greq)
					}
					out, _, err := tbon.New(topo).ReduceNodeLeasedWith(tbon.ReduceOptions{}, leaf, tool.merge.resultFilter(false))
					if err != nil {
						t.Fatalf("%v/v%d/%s: %v", mode, version, tc.name, err)
					}
					return out
				}

				for _, g := range gathers {
					ref := runTool(true, g.req)
					engine := runTool(false, g.req)
					if !bytes.Equal(ref, engine) {
						t.Errorf("%v/v%d/%s/%s: engine result packet differs from the reference loop",
							mode, version, tc.name, g.name)
						continue
					}
					p, err := proto.Decode(engine)
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

// TestSamplerDifferentialRepeatedRounds plays multi-round gathers on one
// tool — each round advances every daemon's epoch, as a sample command
// would — under every reduction engine, and requires every round's root
// packet to equal the reference loop's packet for that epoch. Two walk
// slots make pooled walkers serve many daemons across rounds, and every
// round flips each walker's accumulator parity, so walker reuse and the
// parity slots are both on the differential.
func TestSamplerDifferentialRepeatedRounds(t *testing.T) {
	const rounds = 3
	greq := proto.GatherRequest{Which: proto.TreeBoth}
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		for _, version := range []uint8{2, 3} {
			for _, tc := range differentialTopologies {
				topo, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				runRounds := func(reference bool, engine testEngine) [][]byte {
					tool, daemons := differentialTool(t, topo, mode, version, 2)
					leaf := func(i int) (*tbon.Lease, error) {
						if reference {
							return referencePacket(daemons[i], greq)
						}
						return daemons[i].gatherPacket(greq)
					}
					net := tbon.New(topo)
					outs := make([][]byte, 0, rounds)
					for round := 0; round < rounds; round++ {
						for _, dm := range daemons {
							dm.epoch += dm.samples
						}
						out, _, err := net.ReduceNodeLeasedWith(engine.reduceOpts(), leaf, tool.merge.resultFilter(false))
						if err != nil {
							t.Fatalf("%v/v%d/%s/%v round %d: %v", mode, version, tc.name, engine, round, err)
						}
						outs = append(outs, append([]byte(nil), out...))
					}
					if s := tool.sampler.Stats(); !reference && s.Snapshots != int64(len(daemons)*rounds) {
						t.Errorf("%v/v%d/%s/%v: %d snapshots sealed, want %d",
							mode, version, tc.name, engine, s.Snapshots, len(daemons)*rounds)
					}
					return outs
				}

				ref := runRounds(true, seqEngine)
				for _, engine := range allEngines {
					got := runRounds(false, engine)
					for round := range ref {
						if !bytes.Equal(ref[round], got[round]) {
							t.Errorf("%v/v%d/%s/%v round %d: engine result packet differs from the reference loop",
								mode, version, tc.name, engine, round)
						}
					}
				}
			}
		}
	}
}

// TestSamplerDifferentialFullSession runs complete sessions (launch →
// attach → sample → gather → remap → classes) and pins the final
// rank-ordered trees and equivalence classes against reference trees
// built rank by rank with the reference loop — the end-to-end form of the
// differential, progress check included.
func TestSamplerDifferentialFullSession(t *testing.T) {
	const tasks, samples, threads = 96, 4, 2
	rankOrder := make([]int, tasks)
	for r := range rankOrder {
		rankOrder[r] = r
	}
	byRank := func(local, rank int) int { return rank }
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		opts := Options{
			Machine:        machine.Atlas(),
			Tasks:          tasks,
			Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
			BitVec:         mode,
			Samples:        samples,
			ThreadsPerTask: threads,
		}
		tool, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tool.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.LaunchErr != nil || res.MergeErr != nil {
			t.Fatalf("%v: launch %v, merge %v", mode, res.LaunchErr, res.MergeErr)
		}
		ptool, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		report, err := ptool.ProgressCheck()
		if err != nil {
			t.Fatal(err)
		}

		// The cold gather samples epochs [0, samples); the progress check's
		// two detailed rounds sample [0, samples) and [samples, 2*samples).
		ref2, ref3 := referenceTrees(tool, rankOrder, byRank, tasks, 0, samples, threads, false)
		_, before := referenceTrees(tool, rankOrder, byRank, tasks, 0, samples, threads, true)
		_, after := referenceTrees(tool, rankOrder, byRank, tasks, samples, samples, threads, true)
		for _, pair := range []struct {
			name              string
			engine, reference *trace.Tree
		}{
			{"2D", res.Tree2D, ref2},
			{"3D", res.Tree3D, ref3},
			{"progress-before", report.Before, before},
			{"progress-after", report.After, after},
		} {
			if !pair.engine.Equal(pair.reference) {
				t.Errorf("%v/%s: session tree differs from the reference", mode, pair.name)
				continue
			}
			ee, err := pair.engine.MarshalBinaryV(trace.WireV2)
			if err != nil {
				t.Fatal(err)
			}
			er, err := pair.reference.MarshalBinaryV(trace.WireV2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ee, er) {
				t.Errorf("%v/%s: encodings differ", mode, pair.name)
			}
		}
		if want := ref2.EquivalenceClasses(); !reflect.DeepEqual(res.Classes, want) {
			t.Errorf("%v: classes %v, reference %v", mode, res.Classes, want)
		}
		ss := res.SampleStats
		if want := int64(tasks * samples * threads); ss.SampledStacks != want {
			t.Errorf("%v: SampledStacks = %d, want %d", mode, ss.SampledStacks, want)
		}
		if ss.PCsResolved == 0 || ss.PCCacheMisses == 0 {
			t.Errorf("%v: resolver/cache counters silent: %+v", mode, ss)
		}
	}
}

// TestSamplePhaseZeroAllocs is the acceptance guard for the batched
// engine: a steady-state daemon sampling round — walk every local stack,
// emit both trees, release — must not touch the heap at all. The
// reference loop allocates frames, trees and labels per sample; the
// engine's trie and its spans, the resolver cache and the emitted-node
// pool absorb all of it.
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
		batch, err := d.sampleTrees(req)
		if err != nil {
			t.Fatal(err)
		}
		batch.Release()
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

	// Drifting legs: each cycle is a fresh sample command (the epoch
	// advances), so each cycle's stacks differ from the last cycle's; the
	// streaming leg walks the daemon's keyed walker and ships delta
	// frames. A cycle
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
		{"pooled", 1, req},
		{"pooled two slots", 2, req},
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
