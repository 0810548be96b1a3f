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

// TestSnapshotSteadyZeroAllocs: once the trie, its spans, and the
// snapshot buffers hold the working set, a pooled Sample round and a keyed
// delta round must run allocation-free — seal publishes into per-node
// buffers, emit uses pooled nodes. The frozen leg resamples the same
// instants every round; the drifting legs advance the sample base, so each
// round's stacks differ from the last round's.
func TestSnapshotSteadyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	app, st := testApp(t, 16, 1)
	ranks := []int{3, 7, 1, 9}
	req := Request{Ranks: ranks, Width: len(ranks), Samples: 4, Threads: 1,
		Want2D: true, Want3D: true, Compress: true}

	pooled := New(app, st, 1)
	for i := 0; i < 10; i++ {
		b := pooled.Sample(req)
		b.Release()
	}
	if n := testing.AllocsPerRun(200, func() {
		b := pooled.Sample(req)
		b.Release()
	}); n != 0 {
		t.Errorf("steady-state pooled round allocates %.1f times", n)
	}

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
		{"pooled", pooled, driftRound(func(r Request) {
			b := pooled.Sample(r)
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
}
