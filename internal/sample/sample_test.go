package sample

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"stat/internal/mpisim"
	"stat/internal/stackwalk"
	"stat/internal/trace"
)

func testApp(t testing.TB, n, threads int) (*mpisim.App, *stackwalk.SymbolTable) {
	t.Helper()
	app, err := mpisim.NewRing(n, mpisim.WithThreads(threads))
	if err != nil {
		t.Fatal(err)
	}
	img, err := stackwalk.StaticImage()
	if err != nil {
		t.Fatal(err)
	}
	st, err := stackwalk.ParseImage(img)
	if err != nil {
		t.Fatal(err)
	}
	return app, st
}

// legacyTrees is the per-sample reference loop: resolve frames per sample
// through the plain Walker, fold each trace via Tree.Add — exactly what
// the daemons did before the batched engine.
func legacyTrees(app *mpisim.App, st *stackwalk.SymbolTable, req Request) (t2, t3 *trace.Tree) {
	t2, t3 = trace.NewTree(req.Width), trace.NewTree(req.Width)
	w := stackwalk.NewWalker(app, st)
	for local, rank := range req.Ranks {
		idx := local
		if req.GlobalIndex {
			idx = rank
		}
		for thread := 0; thread < req.Threads; thread++ {
			for s := 0; s < req.Samples; s++ {
				var frames []trace.Frame
				if req.Detail {
					frames = w.SampleDetailed(rank, thread, req.Base+s)
				} else {
					frames = w.Sample(rank, thread, req.Base+s)
				}
				tr := trace.Trace{Task: idx, Frames: frames}
				t3.Add(tr)
				if s == req.Samples-1 {
					t2.Add(tr)
				}
			}
		}
	}
	return t2, t3
}

func assertTreesMatch(t *testing.T, label string, got, want *trace.Tree) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: emitted tree invalid: %v", label, err)
	}
	if !got.Equal(want) {
		t.Fatalf("%s: emitted tree differs from legacy reference\n got:\n%s\nwant:\n%s", label, got, want)
	}
	for _, version := range []uint8{trace.WireV2, trace.WireV3} {
		g, err := got.MarshalBinaryV(version)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.MarshalBinaryV(version)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: v%d encoding differs from legacy reference", label, version)
		}
	}
}

// TestEngineMatchesLegacy is the package-level differential: for every
// combination of granularity, index mapping, thread count and round shape,
// the trie-emitted trees must be Equal to — and encode byte-identically
// with — the legacy per-sample fold. Repeated rounds on the same engine
// exercise the epoch-reset and span-hit paths; the detail case flips the
// granularity each round. The round-robin cases run on a wider ring: their
// global indexes fall in several label words, in order and out of it, so
// the seal's fold has to OR exactly the words the round's tasks occupy.
func TestEngineMatchesLegacy(t *testing.T) {
	app, st := testApp(t, 12, 2)
	eng := New(app, st, 2)
	wideApp, _ := testApp(t, 320, 2)
	wide := New(wideApp, st, 2)
	ranks := []int{3, 7, 1, 9, 0}
	cases := []struct {
		name string
		eng  *Engine
		req  Request
	}{
		{"hier", eng, Request{Ranks: ranks, Width: len(ranks), Samples: 4, Threads: 1, Want2D: true, Want3D: true}},
		{"hier-threads", eng, Request{Ranks: ranks, Width: len(ranks), Samples: 3, Threads: 2, Want2D: true, Want3D: true}},
		{"original", eng, Request{Ranks: ranks, GlobalIndex: true, Width: 12, Samples: 4, Threads: 1, Want2D: true, Want3D: true}},
		{"detail", eng, Request{Ranks: ranks, Width: len(ranks), Samples: 3, Threads: 1, Detail: true, Want2D: true, Want3D: true}},
		{"hier-later-epoch", eng, Request{Ranks: ranks, Width: len(ranks), Samples: 4, Threads: 1, Base: 8, Want2D: true, Want3D: true}},
		{"single-sample", eng, Request{Ranks: ranks[:2], Width: 2, Samples: 1, Threads: 1, Want2D: true, Want3D: true}},
		{"original-round-robin", wide, Request{Ranks: []int{1, 65, 129, 193, 257, 319}, GlobalIndex: true,
			Width: 320, Samples: 3, Threads: 2, Want2D: true, Want3D: true, Compress: true}},
		{"original-scattered", wide, Request{Ranks: []int{200, 3, 130, 2, 131, 64}, GlobalIndex: true,
			Width: 300, Samples: 4, Threads: 1, Want2D: true, Want3D: true}},
	}
	for round := 0; round < 3; round++ {
		for _, tc := range cases {
			b := tc.eng.Sample(tc.req)
			w2, w3 := legacyTrees(tc.eng.app, st, tc.req)
			assertTreesMatch(t, tc.name+"/3D", b.Tree3D, w3)
			assertTreesMatch(t, tc.name+"/2D", b.Tree2D, w2)
			b.Release()
			w2.Release()
			w3.Release()
		}
	}
}

// TestWalkShorterStackEndsOnInteriorNode: the ring's progress loop gives
// stacks that stop inside another stack's path. When such a stack follows
// a longer one on the same prefix, the walk descends the cached path and
// must set its bit on the interior node where it ends, not on the deeper
// node the cached path continues to; seal then folds the longer stack's
// bit up into that interior node.
func TestWalkShorterStackEndsOnInteriorNode(t *testing.T) {
	app, st := testApp(t, 64, 1)
	// long: a barrier stack six frames down to the pollfcn, then three
	// advance/CMadvance pairs; short: the same call path stopping at the
	// pollfcn.
	long, short := -1, -1
	var prefix []string
	for r := 0; r < 64 && long < 0; r++ {
		if f := app.StackFuncs(r, 0, 0); len(f) == 12 {
			long, prefix = r, f[:6]
		}
	}
	if long < 0 || prefix[5] != "BGLML_pollfcn" {
		t.Fatalf("no task's sample 0 is a barrier stack three progress pairs deep (found %v)", prefix)
	}
	for r := 0; r < 64; r++ {
		if f := app.StackFuncs(r, 0, 0); slices.Equal(f, prefix) {
			short = r
			break
		}
	}
	if short < 0 {
		t.Fatalf("no task's sample 0 stops at %v; the test needs one", prefix)
	}

	w := &walker{eng: New(app, st, 1)}
	req := Request{Ranks: []int{long, short}, Width: 2, Samples: 1, Threads: 1, Want2D: true, Want3D: true}
	w.walk(req)
	if len(w.path) != 12 {
		t.Fatalf("after the short stack the cached path is %d deep, want the long stack's 12", len(w.path))
	}
	s := w.slot
	end := &w.root
	for _, name := range prefix {
		i := slices.IndexFunc(end.children, func(c *trieNode) bool { return c.name == name })
		if i < 0 {
			t.Fatalf("no trie edge %q on the path %v", name, prefix)
		}
		end = end.children[i]
	}
	if len(end.children) != 1 {
		t.Fatalf("the interior node %q has %d children, want 1", end.name, len(end.children))
	}
	below := end.children[0]
	// Before seal each node holds only the stacks that end on it.
	if got := end.all[s].Members(); !slices.Equal(got, []int{1}) {
		t.Errorf("walked: interior node's all = %v, want the short stack's [1]", got)
	}
	if got := end.last[s].Members(); end.lastEpochs[s] != w.epoch || !slices.Equal(got, []int{1}) {
		t.Errorf("walked: interior node's last = %v (stamped %v), want [1]", got, end.lastEpochs[s] == w.epoch)
	}
	if got := below.all[s].Members(); len(got) != 0 {
		t.Errorf("walked: the node below holds %v, want nothing", got)
	}
	w.seal(req)
	for _, tc := range []struct {
		name string
		n    *trieNode
		want []int
	}{{"interior", end, []int{0, 1}}, {"below", below, []int{0}}} {
		if got := tc.n.all[s].Members(); !slices.Equal(got, tc.want) {
			t.Errorf("sealed: %s node's all = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.n.last[s].Members(); !slices.Equal(got, tc.want) {
			t.Errorf("sealed: %s node's last = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEngineTreeSelection: unrequested trees stay nil and the requested
// one still matches.
func TestEngineTreeSelection(t *testing.T) {
	app, st := testApp(t, 8, 1)
	eng := New(app, st, 1)
	req := Request{Ranks: []int{2, 5}, Width: 2, Samples: 3, Threads: 1, Want3D: true}
	b := eng.Sample(req)
	if b.Tree2D != nil {
		t.Error("unrequested 2D tree emitted")
	}
	_, w3 := legacyTrees(app, st, req)
	assertTreesMatch(t, "3D-only", b.Tree3D, w3)
	b.Release()
	w3.Release()

	req2 := Request{Ranks: []int{2, 5}, Width: 2, Samples: 3, Threads: 1, Want2D: true}
	b2 := eng.Sample(req2)
	if b2.Tree3D != nil {
		t.Error("unrequested 3D tree emitted")
	}
	w2, _ := legacyTrees(app, st, req2)
	assertTreesMatch(t, "2D-only", b2.Tree2D, w2)
	b2.Release()
	w2.Release()
}

// TestEngineConcurrentDaemons runs many daemon walks through a small pool
// concurrently — under -race this checks the shared resolver cache and
// the walker hand-off; the results must still match the legacy fold.
func TestEngineConcurrentDaemons(t *testing.T) {
	app, st := testApp(t, 32, 1)
	eng := New(app, st, 2)
	reqs := make([]Request, 8)
	for d := range reqs {
		ranks := []int{d, d + 8, d + 16, d + 24}
		reqs[d] = Request{Ranks: ranks, Width: len(ranks), Samples: 5, Threads: 1, Want2D: true, Want3D: true}
	}
	var wg sync.WaitGroup
	type pair struct{ e2, e3 []byte }
	got := make([]pair, len(reqs))
	for d := range reqs {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			b := eng.Sample(reqs[d])
			e2, err := b.Tree2D.MarshalBinaryV(trace.WireV2)
			if err != nil {
				t.Error(err)
			}
			e3, err := b.Tree3D.MarshalBinaryV(trace.WireV2)
			if err != nil {
				t.Error(err)
			}
			got[d] = pair{e2, e3}
			b.Release()
		}(d)
	}
	wg.Wait()
	for d := range reqs {
		w2, w3 := legacyTrees(app, st, reqs[d])
		e2, _ := w2.MarshalBinaryV(trace.WireV2)
		e3, _ := w3.MarshalBinaryV(trace.WireV2)
		if !bytes.Equal(got[d].e2, e2) || !bytes.Equal(got[d].e3, e3) {
			t.Errorf("daemon %d: concurrent engine trees differ from legacy", d)
		}
		w2.Release()
		w3.Release()
	}
}

// TestEngineStats checks the counters tell the span story: a round calls
// the resolver far less often than it walks frames (the hung task's frozen
// stack repeats exactly, and drifting PCs stay inside functions the trie
// has already spanned), once per span it records, a second identical
// round calls it not at all,
// distinct PCs stay bounded by the symbol population, and sampled counts
// add up.
func TestEngineStats(t *testing.T) {
	app, st := testApp(t, 8, 1)
	eng := New(app, st, 1)
	req := Request{Ranks: []int{0, 1, 2, 3, 4, 5, 6, 7}, Width: 8, Samples: 5, Threads: 1, Want2D: true, Want3D: true}
	b := eng.Sample(req)
	b.Release()
	s1 := eng.Stats()
	if want := int64(8 * 5); s1.SampledStacks != want {
		t.Errorf("SampledStacks = %d, want %d", s1.SampledStacks, want)
	}
	frames := 0
	for _, rank := range req.Ranks {
		for smp := 0; smp < req.Samples; smp++ {
			frames += len(app.StackPCs(rank, 0, smp))
		}
	}
	if s1.PCsResolved == 0 || 2*s1.PCsResolved > int64(frames) {
		t.Errorf("PCsResolved = %d over %d frames, want some but under half", s1.PCsResolved, frames)
	}
	if s1.PCCacheMisses == 0 || s1.PCCacheMisses > s1.PCsResolved {
		t.Errorf("PCCacheMisses %d outside (0, PCsResolved %d]", s1.PCCacheMisses, s1.PCsResolved)
	}
	// Same round again: every frame lands in a recorded span, so no
	// resolver calls and no new PC-cache misses.
	b = eng.Sample(req)
	b.Release()
	s2 := eng.Stats()
	if s2.PCsResolved != s1.PCsResolved {
		t.Errorf("second identical round called the resolver %d times", s2.PCsResolved-s1.PCsResolved)
	}
	if s2.PCCacheMisses != s1.PCCacheMisses {
		t.Errorf("second identical round took %d new PC-cache misses", s2.PCCacheMisses-s1.PCCacheMisses)
	}
	if s2.SampledStacks != 2*s1.SampledStacks {
		t.Errorf("SampledStacks after two rounds = %d, want %d", s2.SampledStacks, 2*s1.SampledStacks)
	}
	// Each resolver call recorded exactly one span. (checkSpans resolves
	// span starts itself, so it runs after the counters are read.)
	w := eng.getWalker()
	eng.putWalker(w)
	spans := 0
	var rec func(n *trieNode)
	rec = func(n *trieNode) {
		spans += len(n.spans)
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(&w.root)
	if s2.PCsResolved != int64(spans) {
		t.Errorf("PCsResolved = %d, but the trie holds %d spans", s2.PCsResolved, spans)
	}
	checkSpans(t, "after two rounds", w)
}

// TestBatchReleaseIdempotent: releasing a zero Batch or a released Batch
// is a no-op, and the walker returns exactly once.
func TestBatchReleaseIdempotent(t *testing.T) {
	var zero Batch
	zero.Release() // must not panic
	app, st := testApp(t, 8, 1)
	eng := New(app, st, 1)
	b := eng.Sample(Request{Ranks: []int{0}, Width: 1, Samples: 1, Threads: 1, Want3D: true})
	b.Release()
	b.Release() // second release of the same batch: no-op, no double walker return
	// The pool must still hand out a walker (capacity 1): a deadlock here
	// would mean the double release corrupted the pool.
	b2 := eng.Sample(Request{Ranks: []int{0}, Width: 1, Samples: 1, Threads: 1, Want3D: true})
	b2.Release()
}

// TestGranularityFlipResetsTrie: alternating detailed and plain rounds on
// one walker must stay correct — the ID namespaces and span widths
// differ, so the trie resets on each flip, and no span of the old
// granularity survives it, the root's included, nor does the cached path
// of the previous round's last stack.
func TestGranularityFlipResetsTrie(t *testing.T) {
	app, st := testApp(t, 8, 1)
	eng := New(app, st, 1)
	ranks := []int{1, 4, 6}
	for round := 0; round < 4; round++ {
		req := Request{Ranks: ranks, Width: len(ranks), Samples: 3, Threads: 1,
			Base: round, Detail: round%2 == 1, Want2D: true, Want3D: true}
		w := eng.getWalker()
		var old []span
		if w.cache != nil { // the pooled walker has walked a round
			old = slices.Clone(w.root.spans)
			if len(old) == 0 {
				t.Fatalf("round %d: the warm root holds no spans; the flip tests nothing", round)
			}
		}
		eng.putWalker(w)
		b := eng.Sample(req)
		w2, w3 := legacyTrees(app, st, req)
		assertTreesMatch(t, "flip/3D", b.Tree3D, w3)
		assertTreesMatch(t, "flip/2D", b.Tree2D, w2)
		b.Release()
		w2.Release()
		w3.Release()
		w = eng.getWalker()
		for _, sp := range w.root.spans {
			for _, o := range old {
				if o.lo == sp.lo && o.n == sp.n {
					t.Errorf("round %d: root span [%#x, +%#x) survived the granularity flip", round, o.lo, o.n)
				}
			}
		}
		checkSpans(t, "after flip", w)
		checkPath(t, "after flip", w)
		eng.putWalker(w)
	}
}

// TestEmptyRanks: a daemon with no local tasks still emits the sentinel
// root with an empty label, like trace.NewTree.
func TestEmptyRanks(t *testing.T) {
	app, st := testApp(t, 8, 1)
	eng := New(app, st, 1)
	b := eng.Sample(Request{Ranks: nil, Width: 4, Samples: 2, Threads: 1, Want2D: true, Want3D: true})
	for _, tr := range []*trace.Tree{b.Tree2D, b.Tree3D} {
		if tr.NumTasks != 4 || tr.Root == nil || len(tr.Root.Children) != 0 || !tr.Root.Tasks.Empty() {
			t.Errorf("empty round emitted %v", tr)
		}
	}
	b.Release()
}
