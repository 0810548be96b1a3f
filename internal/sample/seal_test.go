package sample

import "testing"

// TestSteadyRoundZeroAllocs: once the trie, its spans, the walker's path
// and word scratch and the compressed label buffers hold the working set,
// a pooled Sample round and a keyed delta round must run allocation-free —
// seal folds and compresses into per-node buffers, emit uses pooled nodes. The frozen leg resamples the same
// instants every round; the drifting legs advance the sample base, so each
// round's stacks differ from the last round's.
func TestSteadyRoundZeroAllocs(t *testing.T) {
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
