package sample

import (
	"bytes"
	"sync"
	"testing"

	"stat/internal/trace"
)

// emitAt materializes the published snapshot of an explicit epoch —
// unlike emitTree it does not read the walker's sealed field, so a test
// reader can hold an old epoch while the walker seals new ones.
func emitAt(w *walker, epoch uint64, last bool, torn *int64) *trace.Node {
	s := loadSnap(&w.root, epoch, torn)
	if s == nil {
		return nil
	}
	return emitSnap(&w.root, s, last, torn)
}

func marshalNodes(t testing.TB, width int, root *trace.Node) []byte {
	t.Helper()
	var tr trace.Tree
	tr.AdoptRoot(width, root)
	b, err := tr.MarshalBinaryV(trace.WireV2)
	if err != nil {
		t.Fatal(err)
	}
	tr.Release()
	return b
}

// TestSnapshotTornReads drives the trie one seal deeper than the engine's
// own pipeline ever does: a reader pinned to epoch 1 keeps emitting while
// the walker walks and seals epoch 2. Every post-seal read observes the
// newer head, takes the one-hop torn retry, and must still reproduce
// round 1 bit-for-bit. After the SECOND subsequent seal the guarantee
// window closes and epoch 1 must read as gone, not as garbage.
func TestSnapshotTornReads(t *testing.T) {
	app, st := testApp(t, 12, 1)
	eng := New(app, st, 1)
	w := &walker{eng: eng}
	ranks := []int{3, 7, 1, 9, 0}
	req := Request{Ranks: ranks, Width: len(ranks), Samples: 4, Threads: 1, Want2D: true, Want3D: true}

	w.walk(req)
	w.seal(req)
	var torn int64
	ref3 := marshalNodes(t, len(ranks), emitAt(w, 1, false, &torn))
	ref2 := marshalNodes(t, len(ranks), emitAt(w, 1, true, &torn))
	if torn != 0 {
		t.Fatalf("reads with no concurrent seal took %d torn retries", torn)
	}

	// Hammer epoch 1 while round 2 walks and seals.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readerTorn int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if root := emitAt(w, 1, false, &readerTorn); root != nil {
				got := marshalNodes(t, len(ranks), root)
				if !bytes.Equal(got, ref3) {
					t.Error("concurrent epoch-1 read differs from the sealed round")
					return
				}
			}
		}
	}()
	req2 := req
	req2.Base = 4
	w.walk(req2)
	w.seal(req2)
	close(stop)
	wg.Wait()

	// Deterministic boundary checks after the concurrent phase: one seal
	// past the pin, epoch 1 must still read exactly — through the torn
	// retry — in both views.
	before := torn
	if got := marshalNodes(t, len(ranks), emitAt(w, 1, false, &torn)); !bytes.Equal(got, ref3) {
		t.Error("epoch-1 3D view changed after a subsequent seal")
	}
	if got := marshalNodes(t, len(ranks), emitAt(w, 1, true, &torn)); !bytes.Equal(got, ref2) {
		t.Error("epoch-1 2D view changed after a subsequent seal")
	}
	if torn == before {
		t.Error("reads behind a live seal reported no torn retries")
	}
	// And epoch 2 reads clean at the head, no retry.
	head := torn
	if emitAt(w, 2, false, &torn) == nil {
		t.Error("current sealed epoch unreadable")
	}
	if torn != head {
		t.Errorf("head read took %d torn retries", torn-head)
	}

	// Second subsequent seal: the window closes and epoch 1 is gone.
	req3 := req
	req3.Base = 8
	w.walk(req3)
	w.seal(req3)
	if emitAt(w, 1, false, &torn) != nil {
		t.Error("epoch 1 still readable after the second subsequent seal")
	}
}

// TestSampleOverlapMatchesQuiesced chains overlapped rounds — each round
// claiming the previous round's speculation — and pins every emitted tree
// byte-identical to a quiesced engine fed the same requests.
func TestSampleOverlapMatchesQuiesced(t *testing.T) {
	app, st := testApp(t, 16, 2)
	over := New(app, st, 2)
	quies := New(app, st, 2)
	ranks := []int{3, 7, 1, 9, 0, 12}
	req := Request{Ranks: ranks, Width: len(ranks), Samples: 3, Threads: 2,
		Want2D: true, Want3D: true, Compress: true}

	var pre *Prefetch
	for round := 0; round < 5; round++ {
		req.Base = round * req.Samples
		next := req
		next.Base = (round + 1) * req.Samples
		b, npre := over.SampleOverlap(pre, req, &next)
		pre = npre
		qb := quies.Sample(req)
		for _, v := range []struct {
			got, want *trace.Tree
			name      string
		}{{b.Tree3D, qb.Tree3D, "3D"}, {b.Tree2D, qb.Tree2D, "2D"}} {
			g, err := v.got.MarshalBinaryV(trace.WireV3)
			if err != nil {
				t.Fatal(err)
			}
			w, err := v.want.MarshalBinaryV(trace.WireV3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("round %d: overlapped %s tree differs from quiesced", round, v.name)
			}
		}
		b.Release()
		qb.Release()
	}
	pre.Cancel()

	s := over.Stats()
	if s.PrefetchedWalks != 4 {
		t.Errorf("PrefetchedWalks = %d, want 4 (rounds 1-4 claimed)", s.PrefetchedWalks)
	}
	if s.Snapshots != 5 {
		t.Errorf("Snapshots = %d, want 5", s.Snapshots)
	}
	if s.SnapshotTornReads != 0 {
		t.Errorf("engine's own pipeline took %d torn retries, want 0", s.SnapshotTornReads)
	}
}

// TestSampleOverlapClaimMismatch: a wrong speculation must cost only the
// wasted background walk — the claim rejects it, the round re-walks with
// the real request, and the trees still match the quiesced reference.
func TestSampleOverlapClaimMismatch(t *testing.T) {
	app, st := testApp(t, 16, 1)
	over := New(app, st, 2)
	quies := New(app, st, 2)
	ranks := []int{2, 5, 11}
	req := Request{Ranks: ranks, Width: len(ranks), Samples: 3, Threads: 1, Want2D: true, Want3D: true}

	guess := req
	guess.Base = req.Samples // speculate the usual cadence...
	b, pre := over.SampleOverlap(nil, req, &guess)
	b.Release()

	actual := req
	actual.Base = 7 * req.Samples // ...but the front end skipped ahead
	b2, pre2 := over.SampleOverlap(pre, actual, nil)
	qb := quies.Sample(actual)
	g, _ := b2.Tree3D.MarshalBinaryV(trace.WireV2)
	w, _ := qb.Tree3D.MarshalBinaryV(trace.WireV2)
	if !bytes.Equal(g, w) {
		t.Fatal("post-mismatch tree differs from quiesced reference")
	}
	b2.Release()
	qb.Release()
	if pre2 != nil {
		t.Fatal("SampleOverlap returned a prefetch with nil next")
	}
	if s := over.Stats(); s.PrefetchedWalks != 0 {
		t.Errorf("mismatched claim counted as a prefetched walk (%d)", s.PrefetchedWalks)
	}
}

// TestPrefetchCancel: canceling an outstanding prefetch returns the
// walker, and nil/double cancels are safe.
func TestPrefetchCancel(t *testing.T) {
	var nilPre *Prefetch
	nilPre.Cancel() // must not panic

	app, st := testApp(t, 8, 1)
	eng := New(app, st, 1) // single worker: the pool must get its walker back
	req := Request{Ranks: []int{0, 4}, Width: 2, Samples: 2, Threads: 1, Want3D: true}
	// With one worker the cap forbids prefetching, so force the pin by
	// driving the walker directly.
	b := eng.Sample(req)
	b.Release()
	w := eng.getWalker()
	eng.prefetches.Add(1)
	next := req
	next.Base = 2
	pre := w.startPrefetch(next)
	pre.Cancel()
	pre.Cancel() // idempotent
	if n := eng.prefetches.Load(); n != 0 {
		t.Fatalf("prefetch count %d after cancel, want 0", n)
	}
	// Pool must serve again — a lost walker deadlocks here.
	b2 := eng.Sample(req)
	b2.Release()
}

// TestSingleWorkerDegradesToQuiesced: with one walker the prefetch cap is
// zero, so SampleOverlap must never pin — otherwise other daemons starve.
func TestSingleWorkerDegradesToQuiesced(t *testing.T) {
	app, st := testApp(t, 8, 1)
	eng := New(app, st, 1)
	req := Request{Ranks: []int{1, 3}, Width: 2, Samples: 2, Threads: 1, Want3D: true}
	for round := 0; round < 3; round++ {
		req.Base = round * req.Samples
		next := req
		next.Base = (round + 1) * req.Samples
		b, pre := eng.SampleOverlap(nil, req, &next)
		if pre != nil {
			t.Fatal("single-worker engine started a prefetch")
		}
		b.Release()
	}
	if s := eng.Stats(); s.Snapshots != 3 {
		t.Errorf("Snapshots = %d, want 3", s.Snapshots)
	}
}

// TestSnapshotSteadyZeroAllocs: once the trie, its spans, and the
// snapshot buffers hold the working set, both the quiesced and the
// overlapped round must run allocation-free — seal publishes into per-node
// buffers, emit uses pooled nodes, the prefetch handle is embedded in the
// walker. The frozen legs resample the same instants every round; the
// drifting legs advance the sample base, so each round's stacks differ
// from the last round's.
func TestSnapshotSteadyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	app, st := testApp(t, 16, 1)
	ranks := []int{3, 7, 1, 9}
	req := Request{Ranks: ranks, Width: len(ranks), Samples: 4, Threads: 1,
		Want2D: true, Want3D: true, Compress: true}

	quies := New(app, st, 1)
	for i := 0; i < 10; i++ {
		b := quies.Sample(req)
		b.Release()
	}
	if n := testing.AllocsPerRun(200, func() {
		b := quies.Sample(req)
		b.Release()
	}); n != 0 {
		t.Errorf("steady-state quiesced round allocates %.1f times", n)
	}

	over := New(app, st, 2)
	var pre *Prefetch
	round := func() {
		next := req
		b, npre := over.SampleOverlap(pre, req, &next)
		pre = npre
		b.Release()
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if pre == nil {
		t.Fatal("no prefetch outstanding after warmup")
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("steady-state overlapped round allocates %.1f times", n)
	}
	pre.Cancel()

	// Drifting legs: a larger daemon, with the base advancing one round's
	// samples at a time. A round that meets a call path the trie has not
	// seen yet resolves its PC and records a span, which may grow a span
	// array, so every leg first warms until a long run of rounds calls the
	// resolver not at all.
	warm := func(eng *Engine, round func()) {
		for i, quiet := 0, 0; i < 5000 && quiet < 200; i++ {
			before := eng.Stats().PCsResolved
			round()
			if eng.Stats().PCsResolved == before {
				quiet++
			} else {
				quiet = 0
			}
		}
	}
	drift := req
	drift.Ranks = []int{0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15}
	drift.Width = len(drift.Ranks)
	drift.Samples = 8
	driftRound := func(sample func(Request)) func() {
		return func() {
			sample(drift)
			drift.Base += drift.Samples
		}
	}
	keyed := New(app, st, 1)
	legs := []struct {
		name  string
		eng   *Engine
		round func()
	}{
		{"quiesced", quies, driftRound(func(r Request) {
			b := quies.Sample(r)
			b.Release()
		})},
		{"keyed delta", keyed, driftRound(func(r Request) {
			r.Delta = true
			b := keyed.SampleKeyed(0, r)
			b.Release()
		})},
	}
	for _, leg := range legs {
		warm(leg.eng, leg.round)
		if n := testing.AllocsPerRun(200, leg.round); n != 0 {
			t.Errorf("drifting %s round allocates %.1f times", leg.name, n)
		}
	}
	if !stacksDiffer(app, drift, drift.Base-drift.Samples) {
		t.Error("a drifting round walks the previous round's stacks; the drifting legs test nothing")
	}

	over2 := New(app, st, 2)
	pre = nil
	driftOverlap := func() {
		next := drift
		next.Base += drift.Samples
		b, npre := over2.SampleOverlap(pre, drift, &next)
		pre = npre
		b.Release()
		drift.Base = next.Base
	}
	warm(over2, driftOverlap)
	if n := testing.AllocsPerRun(200, driftOverlap); n != 0 {
		t.Errorf("drifting overlapped round allocates %.1f times", n)
	}
	if s := over2.Stats(); s.UnclaimedWalks != 0 || s.PrefetchedWalks == 0 {
		t.Errorf("drifting overlap: %d walks claimed, %d unclaimed; want every speculation claimed",
			s.PrefetchedWalks, s.UnclaimedWalks)
	}
	pre.Cancel()
}
