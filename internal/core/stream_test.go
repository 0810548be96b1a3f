package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"stat/internal/machine"
	"stat/internal/mpisim"
	"stat/internal/proto"
	"stat/internal/tbon"
	"stat/internal/topology"
	"stat/internal/trace"
)

// streamLeg is one streaming session's observable output: the final
// Result plus, per streamed round, a fixed-version (v2) snapshot encoding
// of both resident trees taken inside the StreamRound hook. Two legs with
// identical sampling options must produce byte-identical snapshots round
// by round, regardless of how each round traveled (delta vs whole).
type streamLeg struct {
	res    *Result
	rounds [][]byte
}

func runStreamLeg(t *testing.T, opts Options, whole bool, rounds int) streamLeg {
	t.Helper()
	var frames [][]byte
	opts.Stream = rounds
	opts.StreamWholeTree = whole
	opts.StreamRound = func(round int, delta bool, t2, t3 *trace.Tree) {
		b, err := t2.AppendBinaryV(nil, trace.WireV2)
		if err != nil {
			t.Fatal(err)
		}
		b, err = t3.AppendBinaryV(b, trace.WireV2)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	tool, err := New(opts)
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
	return streamLeg{res: res, rounds: frames}
}

// TestStreamDifferential pins the delta fold against the whole-tree
// reference: two sessions with identical sampling options — one folding
// delta frames, one gathering whole trees every round — must hold
// byte-identical resident trees after every round, across topology
// shapes, wire versions, reduction engines and both representations.
func TestStreamDifferential(t *testing.T) {
	const rounds = 4
	topos := []struct {
		name string
		spec topology.Spec
	}{
		{"flat", topology.Spec{Kind: topology.KindFlat}},
		{"balanced", topology.Spec{Kind: topology.KindBalanced, Depth: 2}},
		{"bgl2deep", topology.Spec{Kind: topology.KindBGL2Deep}},
	}
	engines := allEngines
	cases := []struct {
		mode BitVecMode
		wire uint8
	}{
		{Hierarchical, trace.WireV2},
		{Hierarchical, trace.WireV3},
		{Original, trace.WireV2},
	}
	for _, tc := range cases {
		for _, tp := range topos {
			for _, eng := range engines {
				name := fmt.Sprintf("%v-v%d/%s/%s", tc.mode, tc.wire, tp.name, eng.name)
				t.Run(name, func(t *testing.T) {
					opts := Options{
						Machine:     machine.Atlas(),
						Tasks:       48,
						Topology:    tp.spec,
						BitVec:      tc.mode,
						Samples:     2,
						WireVersion: tc.wire,
					}
					eng.apply(&opts)
					delta := runStreamLeg(t, opts, false, rounds)
					whole := runStreamLeg(t, opts, true, rounds)

					if delta.res.StreamRounds != rounds || whole.res.StreamRounds != rounds {
						t.Fatalf("stream rounds: delta %d, whole %d, want %d",
							delta.res.StreamRounds, whole.res.StreamRounds, rounds)
					}
					// Homogeneous v2+ fleet: every streamed round of the
					// delta leg must actually travel as deltas, with no
					// mixed-round fallbacks; the reference leg never deltas.
					if delta.res.StreamDeltaRounds != rounds {
						t.Errorf("delta leg: %d of %d rounds traveled as deltas", delta.res.StreamDeltaRounds, rounds)
					}
					if delta.res.StreamMixedRetries != 0 {
						t.Errorf("delta leg: %d mixed-round retries", delta.res.StreamMixedRetries)
					}
					if whole.res.StreamDeltaRounds != 0 {
						t.Errorf("whole-tree leg reported %d delta rounds", whole.res.StreamDeltaRounds)
					}
					// The hook sees round 0 (the cold gather) plus each
					// streamed round.
					if len(delta.rounds) != rounds+1 || len(whole.rounds) != rounds+1 {
						t.Fatalf("hook rounds: delta %d, whole %d", len(delta.rounds), len(whole.rounds))
					}
					for r := range delta.rounds {
						if !bytes.Equal(delta.rounds[r], whole.rounds[r]) {
							t.Errorf("round %d: folded resident trees differ from whole-tree gather", r)
						}
					}
					if !delta.res.Tree2D.Equal(whole.res.Tree2D) {
						t.Error("final 2D trees differ")
					}
					if !delta.res.Tree3D.Equal(whole.res.Tree3D) {
						t.Error("final 3D trees differ")
					}
					if err := delta.res.Tree2D.Validate(); err != nil {
						t.Errorf("folded 2D tree invalid: %v", err)
					}
					if err := delta.res.Tree3D.Validate(); err != nil {
						t.Errorf("folded 3D tree invalid: %v", err)
					}
				})
			}
		}
	}
}

// TestStreamQuiescentIngress is the streaming mode's perf acceptance: on a
// 128-daemon flat topology where only one task's stack drifts between
// rounds, a delta round's front-end ingress must be at most 10% of a
// whole-tree round's.
func TestStreamQuiescentIngress(t *testing.T) {
	const rounds = 4
	mkOpts := func() Options {
		app, err := mpisim.NewRing(1024, mpisim.WithActiveTask(7))
		if err != nil {
			t.Fatal(err)
		}
		return Options{
			Machine:  machine.Atlas(), // 8 tasks/daemon: 1024 tasks = 128 daemons
			Tasks:    1024,
			Topology: topology.Spec{Kind: topology.KindFlat},
			BitVec:   Hierarchical,
			Samples:  2,
			App:      app,
		}
	}
	delta := runStreamLeg(t, mkOpts(), false, rounds)
	whole := runStreamLeg(t, mkOpts(), true, rounds)

	if delta.res.Daemons != 128 {
		t.Fatalf("topology spans %d daemons, want 128", delta.res.Daemons)
	}
	if delta.res.StreamDeltaRounds != rounds {
		t.Fatalf("delta leg: %d of %d delta rounds", delta.res.StreamDeltaRounds, rounds)
	}
	if whole.res.StreamWholeBytes == 0 {
		t.Fatal("whole-tree leg recorded no streamed ingress")
	}
	avgDelta := delta.res.StreamDeltaBytes / int64(delta.res.StreamDeltaRounds)
	avgWhole := whole.res.StreamWholeBytes / int64(whole.res.StreamRounds)
	if avgDelta*10 > avgWhole {
		t.Errorf("quiescent delta round ingress %d bytes exceeds 10%% of whole-tree round %d bytes",
			avgDelta, avgWhole)
	}
	// The two legs agree on the result despite the ~10x traffic gap.
	if !delta.res.Tree2D.Equal(whole.res.Tree2D) || !delta.res.Tree3D.Equal(whole.res.Tree3D) {
		t.Error("delta and whole-tree legs disagree on final trees")
	}
}

// TestStreamStableApplicationNoEvents: when every task's stack is frozen
// (the active task is the already-frozen hung task), every round's delta
// is the canonical root-only empty frame, the fold touches nothing, and no
// class-transition events fire.
func TestStreamStableApplicationNoEvents(t *testing.T) {
	const rounds = 5
	app, err := mpisim.NewRing(64, mpisim.WithActiveTask(1)) // task 1 is the hung task: frozen anyway
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Machine:  machine.Atlas(),
		Tasks:    64,
		Topology: topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		BitVec:   Hierarchical,
		Samples:  2,
		App:      app,
	}
	leg := runStreamLeg(t, opts, false, rounds)
	if leg.res.StreamDeltaRounds != rounds {
		t.Fatalf("%d of %d rounds traveled as deltas", leg.res.StreamDeltaRounds, rounds)
	}
	if len(leg.res.StreamEvents) != 0 {
		t.Errorf("stable application fired %d class-transition events: %+v",
			len(leg.res.StreamEvents), leg.res.StreamEvents)
	}
	// Every daemon's every delta frame is root-only: 2 frames x rounds per
	// tree pair at the front end after the overlay concatenated them.
	if leg.res.StreamDeltaNodes != int64(2*rounds) {
		t.Errorf("stable application folded %d delta nodes, want %d (root-only frames)",
			leg.res.StreamDeltaNodes, 2*rounds)
	}
}

// TestStreamEventsFireOnClassChange: a drifting task changes its
// termination node round over round, so class-transition events must fire.
func TestStreamEventsFireOnClassChange(t *testing.T) {
	app, err := mpisim.NewRing(64, mpisim.WithActiveTask(7))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Machine:  machine.Atlas(),
		Tasks:    64,
		Topology: topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		BitVec:   Hierarchical,
		Samples:  2,
		App:      app,
	}
	leg := runStreamLeg(t, opts, false, 5)
	if len(leg.res.StreamEvents) == 0 {
		t.Error("drifting task produced no class-transition events across 5 rounds")
	}
	for _, ev := range leg.res.StreamEvents {
		if ev.Round < 1 || ev.Round > 5 {
			t.Errorf("event round %d out of range", ev.Round)
		}
		if ev.Classes <= 0 || ev.PrevClasses <= 0 {
			t.Errorf("event carries empty class counts: %+v", ev)
		}
	}
}

// TestStreamSampleStatsCoverAllRounds: a streaming session's sampler
// counters cover the cold round and every streamed round, and count each
// walk a round used exactly once.
func TestStreamSampleStatsCoverAllRounds(t *testing.T) {
	opts := Options{
		Machine:        machine.Atlas(),
		Tasks:          96,
		Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		BitVec:         Hierarchical,
		Samples:        4,
		ThreadsPerTask: 2,
	}
	leg := runStreamLeg(t, opts, false, 2)
	ss := leg.res.SampleStats
	if want := int64(3 * 96 * 2 * 4); ss.SampledStacks != want {
		t.Errorf("SampledStacks = %d, want %d (cold + 2 streamed rounds × tasks × threads × samples)",
			ss.SampledStacks, want)
	}
	if want := int64(3 * leg.res.Daemons); ss.Snapshots != want {
		t.Errorf("Snapshots = %d, want %d (one per daemon per round)", ss.Snapshots, want)
	}
	if ss.PCsResolved == 0 {
		t.Error("PCsResolved = 0: the resolver counter is silent")
	}
}

// TestStreamParksNoGoroutines: the sampling engine starts no goroutines
// of its own, so between the rounds of a session nothing it started is
// still alive. A whole-tree stream samples through the pooled walkers on
// two walk slots; inside each round's hook, after the round's reduction
// has returned, the process must run no more goroutines than before Run.
// The reduction's workers have signalled their exit by then but may not
// have finished it, so the hook gives them a moment; a goroutine parked
// between rounds never leaves.
func TestStreamParksNoGoroutines(t *testing.T) {
	opts := Options{
		Machine:         machine.Atlas(),
		Tasks:           64,
		Topology:        topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		BitVec:          Hierarchical,
		Samples:         3,
		SampleWorkers:   2,
		Stream:          3,
		StreamWholeTree: true,
	}
	var counts []int
	before := 0
	opts.StreamRound = func(round int, delta bool, t2, t3 *trace.Tree) {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		counts = append(counts, n)
	}
	tool, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	before = runtime.NumGoroutine()
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LaunchErr != nil || res.MergeErr != nil {
		t.Fatalf("launch %v, merge %v", res.LaunchErr, res.MergeErr)
	}
	if len(counts) != opts.Stream+1 {
		t.Fatalf("hook saw %d rounds, want %d", len(counts), opts.Stream+1)
	}
	for round, n := range counts {
		if n > before {
			t.Errorf("round %d: %d goroutines in the hook, %d before Run", round, n, before)
		}
	}
}

// TestStreamFaultTolerantRejected: a partial fold has no delta base, so
// the option combination is rejected at validation.
func TestStreamFaultTolerantRejected(t *testing.T) {
	_, err := New(Options{
		Machine:       machine.Atlas(),
		Tasks:         32,
		Topology:      topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		Samples:       2,
		Stream:        2,
		FaultTolerant: true,
	})
	if err == nil {
		t.Fatal("Stream + FaultTolerant accepted")
	}
}

// mkResultChild encodes a daemon-style gather reply packet — a 2D+3D tree
// pair, as whole trees or delta frames — for driving resultFilter directly.
func mkResultChild(t testing.TB, delta bool, width, task int) *tbon.Lease {
	t.Helper()
	t2, t3 := trace.NewTree(width), trace.NewTree(width)
	t2.AddStack(task, "main", "solve")
	t3.AddStack(task, "main", "solve", "mpi_wait")
	body, err := encodeFramesInto(nil, trace.WireV2, delta, t2, t3)
	if err != nil {
		t.Fatal(err)
	}
	t2.Release()
	t3.Release()
	typ := proto.MsgResult
	if delta {
		typ = proto.MsgDelta
	}
	p := proto.Packet{Stream: proto.DataStream, Type: typ, Version: trace.WireV2, Payload: body}
	return tbon.NewLease(p.Encode(), nil)
}

// TestResultFilterMixedDeltaRound pins the fallback protocol's trigger: a
// join whose children mix delta frames with whole trees must abort with
// errMixedDeltaRound rather than combine incomparable payloads.
func TestResultFilterMixedDeltaRound(t *testing.T) {
	filter := newAllocTool(t, Hierarchical).merge.resultFilter(false)
	children := []*tbon.Lease{
		mkResultChild(t, true, 4, 0),
		mkResultChild(t, false, 4, 1),
	}
	_, err := filter(nil, children)
	if !errors.Is(err, errMixedDeltaRound) {
		t.Fatalf("mixed children returned %v, want errMixedDeltaRound", err)
	}
	if !isMixedDeltaRound(fmt.Errorf("tbon: filter at node 3: %w", err)) {
		t.Error("wrapped mixed-round error not recognized by the front end's matcher")
	}
	for _, c := range children {
		c.Release()
	}
}

// TestResultFilterUniformDelta: uniform delta children merge into a
// MsgDelta packet whose body concatenates the frames like whole trees.
func TestResultFilterUniformDelta(t *testing.T) {
	filter := newAllocTool(t, Hierarchical).merge.resultFilter(false)
	children := []*tbon.Lease{
		mkResultChild(t, true, 3, 0),
		mkResultChild(t, true, 5, 2),
	}
	out, err := filter(nil, children)
	if err != nil {
		t.Fatal(err)
	}
	p, err := proto.Decode(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.Type != proto.MsgDelta {
		t.Fatalf("uniform delta join produced %v, want delta", p.Type)
	}
	frames, err := decodeTrees(nil, p.Payload, trace.DecodeOpts{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("merged delta body carries %d frames, want 2", len(frames))
	}
	if frames[0].NumTasks != 8 {
		t.Errorf("concatenated delta spans %d tasks, want 8", frames[0].NumTasks)
	}
	for _, f := range frames {
		f.Release()
	}
	out.Release()
	for _, c := range children {
		c.Release()
	}
}

// TestDeltaFilterCycleZeroAllocs extends the leased-buffer guarantee to
// the delta merge kernel: one decode→concat→encode cycle over delta
// frames in hierarchical mode, on a warm codec, must not touch the heap.
func TestDeltaFilterCycleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	for _, version := range []uint8{trace.WireV2, trace.WireV3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			merge := newAllocTool(t, Hierarchical).merge.deltaMerger()
			children := make([]*tbon.Lease, 2)
			for ci := range children {
				width := 5 + ci*3
				t2, t3 := trace.NewTree(width), trace.NewTree(width)
				for task := 0; task < width; task++ {
					t2.AddStack(task, "main", "solve", "mpi_wait")
					t3.AddStack(task, "main", "solve", "barrier")
				}
				body, err := encodeFramesInto(nil, version, true, t2, t3)
				if err != nil {
					t.Fatal(err)
				}
				t2.Release()
				t3.Release()
				children[ci] = tbon.NewLease(body, nil)
			}
			cycle := func() {
				out, err := merge(children, 0, version, nil)
				if err != nil {
					t.Fatal(err)
				}
				outBufs.Put(out)
			}
			for i := 0; i < 10; i++ {
				cycle()
			}
			if n := testing.AllocsPerRun(200, cycle); n != 0 {
				t.Errorf("steady-state delta filter cycle allocates %v per op, want 0", n)
			}
			for _, c := range children {
				c.Release()
			}
		})
	}
}

// buildFoldFixture returns a many-branched live tree plus an encoded
// label-only delta frame touching a single branch of it: the delta's XOR
// labels toggle one task that every live label contains, so the fold
// neither creates nor deletes nodes and — because XOR is an involution —
// two applications restore the live tree exactly. The steady-state shape
// of a quiescent streaming session: the tree is wide, the change is not.
func buildFoldFixture(t testing.TB, width int) (live *trace.Tree, frame []byte) {
	t.Helper()
	live = trace.NewTree(width)
	for branch := 0; branch < 24; branch++ {
		phase := fmt.Sprintf("phase_%02d", branch)
		for task := 0; task < width; task++ {
			live.AddStack(task, "main", phase, "step", "kernel")
		}
	}
	deltaT := trace.NewTree(width)
	deltaT.AddStack(1, "main", "phase_00", "step", "kernel")
	var err error
	frame, err = deltaT.AppendBinaryDeltaV(nil, trace.WireV2)
	if err != nil {
		t.Fatal(err)
	}
	deltaT.Release()
	return live, frame
}

// TestStreamFoldZeroAllocs guards the front-end fold itself: decoding a
// delta frame through a warm codec and XOR-folding it into the resident
// tree must be allocation-free when the round changed labels but not
// structure — the steady state of continuous monitoring.
func TestStreamFoldZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	live, frame := buildFoldFixture(t, 16)
	codec := trace.NewCodec()
	cycle := func() {
		d, err := trace.Decode(frame, trace.DecodeOpts{Codec: codec, Delta: true})
		if err != nil {
			t.Fatal(err)
		}
		// Apply twice: the involution returns the resident tree to its
		// starting state, so every iteration sees identical work.
		if err := trace.ApplyDelta(live, d); err != nil {
			t.Fatal(err)
		}
		if err := trace.ApplyDelta(live, d); err != nil {
			t.Fatal(err)
		}
		d.Release()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("steady-state delta fold allocates %v per op, want 0", n)
	}
	live.Release()
}

// BenchmarkDeltaRound is the front end's per-round cost comparison at the
// paper's 208K-task scale (BG/L VN mode: 1,664 daemons x 128 tasks): the
// delta path decodes a near-empty frame and XOR-folds it into the resident
// tree, while the whole-tree path re-decodes the entire 208K-wide tree
// pair. Gated in CI against the committed baseline; the fold must be at
// least 5x cheaper (TestDeltaRoundSpeedup).
func BenchmarkDeltaRound(b *testing.B) {
	const width = 1664 * 128
	live, frame := buildFoldFixture(b, width)
	defer live.Release()
	deltaBody, err := encodeFramesInto(nil, trace.WireV2, true, mustUnmarshalDelta(b, frame), mustUnmarshalDelta(b, frame))
	if err != nil {
		b.Fatal(err)
	}
	wholeBody, err := encodeTrees(trace.WireV2, live, live)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("fold", func(b *testing.B) {
		live2 := live.Clone()
		defer live2.Release()
		b.SetBytes(int64(len(deltaBody)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frames, err := decodeTrees(nil, deltaBody, trace.DecodeOpts{Delta: true})
			if err != nil {
				b.Fatal(err)
			}
			// Two applications per frame pair keep the resident tree at
			// its starting state across iterations (XOR involution).
			for _, f := range frames {
				if err := trace.ApplyDelta(live2, f); err != nil {
					b.Fatal(err)
				}
			}
			for _, f := range frames {
				f.Release()
			}
		}
	})
	b.Run("whole", func(b *testing.B) {
		b.SetBytes(int64(len(wholeBody)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trees, err := decodeTrees(nil, wholeBody, trace.DecodeOpts{})
			if err != nil {
				b.Fatal(err)
			}
			for _, tr := range trees {
				tr.Release()
			}
		}
	})
}

func mustUnmarshalDelta(t testing.TB, frame []byte) *trace.Tree {
	t.Helper()
	d, err := trace.Decode(frame, trace.DecodeOpts{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeltaRoundSpeedup is the gate behind BenchmarkDeltaRound: at the
// 208K-task scale the per-round delta fold must run at least 5x faster
// than re-decoding the whole tree pair.
func TestDeltaRoundSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed gate in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate is meaningless under the race detector")
	}
	const width = 1664 * 128
	live, frame := buildFoldFixture(t, width)
	defer live.Release()
	deltaBody, err := encodeFramesInto(nil, trace.WireV2, true, mustUnmarshalDelta(t, frame), mustUnmarshalDelta(t, frame))
	if err != nil {
		t.Fatal(err)
	}
	wholeBody, err := encodeTrees(trace.WireV2, live, live)
	if err != nil {
		t.Fatal(err)
	}
	fold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			frames, err := decodeTrees(nil, deltaBody, trace.DecodeOpts{Delta: true})
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range frames {
				if err := trace.ApplyDelta(live, f); err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
		}
	})
	whole := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trees, err := decodeTrees(nil, wholeBody, trace.DecodeOpts{})
			if err != nil {
				b.Fatal(err)
			}
			for _, tr := range trees {
				tr.Release()
			}
		}
	})
	if fold.NsPerOp()*5 > whole.NsPerOp() {
		t.Errorf("delta fold %d ns/op is not 5x faster than whole-tree decode %d ns/op",
			fold.NsPerOp(), whole.NsPerOp())
	}
}
