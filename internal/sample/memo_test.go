package sample

import (
	"testing"

	"stat/internal/mpisim"
)

// TestMemoBoundedUnderDrift: a keyed walker streaming drifting rounds —
// every spinning stack novel at every sample — flushes its memo whenever
// it fills, and never holds more than its budget in entries, however many
// rounds it walks. The counters stay consistent under flushing: every
// walk is a hit or builds an entry.
func TestMemoBoundedUnderDrift(t *testing.T) {
	app, st := testApp(t, 24, 2)
	eng := New(app, st, 1)
	ranks := make([]int, 20)
	for i := range ranks {
		ranks[i] = i
	}
	req := Request{Ranks: ranks, Width: len(ranks), Samples: 6, Threads: 2,
		Want2D: true, Want3D: true, Compress: true, Delta: true}
	budget := memoBudget(req, true)
	if budget != 2*20*2 {
		t.Fatalf("memoBudget = %d, want %d", budget, 2*20*2)
	}
	const rounds = 24
	for round := 0; round < rounds; round++ {
		req.Base = round * req.Samples
		b := eng.SampleKeyed(3, req)
		b.Release()
		m := &eng.keyedWalker(3).memo
		if m.count > budget || len(m.entries) > budget || cap(m.entries) > budget {
			t.Fatalf("round %d: memo holds %d entries (arena %d/%d), budget %d",
				round, m.count, len(m.entries), cap(m.entries), budget)
		}
	}
	s := eng.Stats()
	if want := int64(rounds * 20 * 2 * 6); s.SampledStacks != want {
		t.Errorf("SampledStacks = %d, want %d", s.SampledStacks, want)
	}
	if s.DistinctStacks+s.StackMemoHits != s.SampledStacks {
		t.Errorf("DistinctStacks %d + StackMemoHits %d != SampledStacks %d",
			s.DistinctStacks, s.StackMemoHits, s.SampledStacks)
	}
	// Each round builds about Samples × tasks × threads entries, so a
	// budget of twice tasks × threads flushes about three times a round.
	if s.MemoFlushes < rounds {
		t.Errorf("MemoFlushes = %d over %d drifting rounds, want at least one a round", s.MemoFlushes, rounds)
	}
}

// TestMemoFrozenHitsAfterFlush: in a quiescent application a flush forgets
// the frozen stacks too, but they are memoized again as the walk meets
// them, so the first round after the flush hits on every frozen sample.
// The moving task is rank 0, walked first: its novel stacks are the only
// misses that can trigger the flush, and every frozen stack walked after
// it is rebuilt in the same round.
func TestMemoFrozenHitsAfterFlush(t *testing.T) {
	app, err := mpisim.NewRing(8, mpisim.WithThreads(2), mpisim.WithActiveTask(0))
	if err != nil {
		t.Fatal(err)
	}
	_, st := testApp(t, 8, 2)
	eng := New(app, st, 1)
	req := Request{Ranks: []int{0, 1, 2, 3, 4, 5, 6, 7}, Width: 8,
		Samples: 4, Threads: 2, Want3D: true, Delta: true}
	const frozen = 7 * 2 // (rank, thread) pairs of every task but rank 0
	prev := eng.Stats()
	flushedLast := false
	checked := 0
	for round := 0; round < 40; round++ {
		req.Base = round * req.Samples
		b := eng.SampleKeyed(0, req)
		b.Release()
		s := eng.Stats()
		hits := s.StackMemoHits - prev.StackMemoHits
		flushed := s.MemoFlushes > prev.MemoFlushes
		if round > 0 && hits < frozen*int64(req.Samples-1) {
			t.Errorf("round %d: %d memo hits, want at least %d from the frozen stacks",
				round, hits, frozen*(req.Samples-1))
		}
		if flushedLast {
			checked++
			if hits != frozen*int64(req.Samples) {
				t.Errorf("round %d, first after a flush: %d memo hits, want %d (every frozen sample)",
					round, hits, frozen*req.Samples)
			}
		}
		flushedLast = flushed
		prev = s
	}
	if checked == 0 {
		t.Fatal("no round followed a memo flush; the test never exercised the flush")
	}
}

// TestMemoPooledResampleHits: a pooled walker keeps a whole round's stacks,
// so walking the same sample instants of the same daemon again hits on
// every stack even though each of them drifted from sample to sample.
func TestMemoPooledResampleHits(t *testing.T) {
	app, st := testApp(t, 24, 2)
	eng := New(app, st, 1)
	ranks := make([]int, 20)
	for i := range ranks {
		ranks[i] = i
	}
	req := Request{Ranks: ranks, Width: len(ranks), Samples: 6, Threads: 2, Base: 12, Want3D: true}
	stacks := int64(len(ranks) * req.Threads * req.Samples)
	if budget := memoBudget(req, false); budget != int(stacks) {
		t.Fatalf("pooled memoBudget = %d, want the round's %d stacks", budget, stacks)
	}
	for round := 0; round < 2; round++ {
		b := eng.Sample(req)
		b.Release()
	}
	before := eng.Stats()
	b := eng.Sample(req)
	b.Release()
	s := eng.Stats()
	if hits := s.StackMemoHits - before.StackMemoHits; hits != stacks {
		t.Errorf("resampled round: %d memo hits, want all %d stacks", hits, stacks)
	}
	if s.MemoFlushes != before.MemoFlushes {
		t.Error("resampled round flushed the memo")
	}
}
