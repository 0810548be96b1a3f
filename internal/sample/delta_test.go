package sample

import (
	"testing"

	"stat/internal/trace"
)

// ownedTree converts a batch-aliased tree into an owned mutable-dense copy
// by a wire round trip — the same path the front end's resident live tree
// takes, and the only legal way to retain a tree past Batch.Release.
func ownedTree(t *testing.T, tr *trace.Tree, version uint8) *trace.Tree {
	t.Helper()
	b, err := tr.MarshalBinaryV(version)
	if err != nil {
		t.Fatal(err)
	}
	out, err := trace.UnmarshalBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ownedDelta round-trips a batch-aliased delta tree through the delta wire
// format, validating the canonical encoding as a side effect.
func ownedDelta(t *testing.T, tr *trace.Tree, version uint8) *trace.Tree {
	t.Helper()
	b, err := tr.AppendBinaryDeltaV(nil, version)
	if err != nil {
		t.Fatal(err)
	}
	out, err := trace.Decode(b, trace.DecodeOpts{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKeyedDeltaFoldMatchesLegacy is the extractor's differential: a keyed
// walker streams rounds with Delta set; round 0 falls back to whole trees
// (no previous seal), every later round emits XOR deltas, and folding each
// delta into the running live trees must reproduce, exactly, the legacy
// per-sample reference for that round.
func TestKeyedDeltaFoldMatchesLegacy(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "dense"
		version := trace.WireV2
		if compress {
			name, version = "compressed", trace.WireV3
		}
		t.Run(name, func(t *testing.T) {
			app, st := testApp(t, 10, 2)
			eng := New(app, st, 2)
			req := Request{
				Ranks:    []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
				Width:    10,
				Samples:  3,
				Threads:  2,
				Compress: compress,
				Want2D:   true,
				Want3D:   true,
				Delta:    true,
			}

			var live2, live3 *trace.Tree
			const rounds = 4
			for round := 0; round < rounds; round++ {
				req.Base = round * req.Samples
				b := eng.SampleKeyed(7, req)
				if round == 0 {
					if b.DeltaOK {
						t.Fatal("round 0 claimed a delta with no previous seal")
					}
					live2 = ownedTree(t, b.Tree2D, version)
					live3 = ownedTree(t, b.Tree3D, version)
				} else {
					if !b.DeltaOK {
						t.Fatalf("round %d fell back to whole trees", round)
					}
					if b.Tree2D != nil || b.Tree3D != nil {
						t.Fatalf("round %d delta batch also carries whole trees", round)
					}
					d2 := ownedDelta(t, b.Delta2D, version)
					d3 := ownedDelta(t, b.Delta3D, version)
					if err := trace.ApplyDelta(live2, d2); err != nil {
						t.Fatalf("round %d 2D fold: %v", round, err)
					}
					if err := trace.ApplyDelta(live3, d3); err != nil {
						t.Fatalf("round %d 3D fold: %v", round, err)
					}
					d2.Release()
					d3.Release()
				}
				b.Release()

				want2, want3 := legacyTrees(app, st, req)
				assertTreesMatch(t, "2D", live2, want2)
				assertTreesMatch(t, "3D", live3, want3)
			}
			if got := eng.Stats().DeltaRounds; got != rounds-1 {
				t.Errorf("Stats.DeltaRounds = %d, want %d", got, rounds-1)
			}
		})
	}
}

// TestKeyedDeltaQuiescentRound pins the steady-state shape: re-sampling
// the same instants (same Base) produces identical labels, so the delta
// collapses to the canonical root-only empty frame.
func TestKeyedDeltaQuiescentRound(t *testing.T) {
	app, st := testApp(t, 6, 1)
	eng := New(app, st, 1)
	req := Request{
		Ranks:   []int{0, 1, 2, 3, 4, 5},
		Width:   6,
		Samples: 2,
		Threads: 1,
		Want2D:  true,
		Want3D:  true,
		Delta:   true,
	}
	b0 := eng.SampleKeyed(0, req)
	b0.Release()
	b1 := eng.SampleKeyed(0, req) // identical round: nothing changed
	if !b1.DeltaOK {
		t.Fatal("second identical round did not qualify for delta")
	}
	for _, d := range []*trace.Tree{b1.Delta2D, b1.Delta3D} {
		if d.NodeCount() != 0 {
			t.Errorf("quiescent delta has %d non-root nodes, want root only:\n%s", d.NodeCount(), d)
		}
		if !d.Root.Tasks.Empty() {
			t.Errorf("quiescent delta root label not empty: %v", d.Root.Tasks)
		}
	}
	b1.Release()
}

// TestKeyedDeltaFallbackAndRequalify walks the fallback triggers: a round
// whose shape is not XOR-comparable with the previous seal emits whole
// trees, and the round after it (matching shape again) re-qualifies.
func TestKeyedDeltaFallbackAndRequalify(t *testing.T) {
	app, st := testApp(t, 8, 1)
	eng := New(app, st, 1)
	base := Request{
		Ranks:   []int{0, 1, 2, 3, 4, 5, 6, 7},
		Width:   8,
		Samples: 2,
		Threads: 1,
		Want2D:  true,
		Want3D:  true,
		Delta:   true,
	}
	run := func(req Request) bool {
		b := eng.SampleKeyed(3, req)
		ok := b.DeltaOK
		b.Release()
		return ok
	}
	if run(base) {
		t.Fatal("first round claimed a delta")
	}
	if !run(base) {
		t.Fatal("second round did not qualify")
	}

	narrow := base
	narrow.Ranks = base.Ranks[:4]
	narrow.Width = 4
	if run(narrow) {
		t.Error("rank-set change still qualified for delta")
	}
	if !run(narrow) {
		t.Error("round after a shape change did not re-qualify")
	}

	noDelta := narrow
	noDelta.Delta = false
	if run(noDelta) {
		t.Error("Delta-less request produced a delta batch")
	}
	// The whole-tree round still sealed this epoch, so the chain is intact.
	if !run(narrow) {
		t.Error("delta round after a whole-tree round did not qualify")
	}

	detail := narrow
	detail.Detail = true
	if run(detail) {
		t.Error("granularity flip still qualified for delta")
	}
}

// TestDeltaCompatible exercises the shape comparison field by field.
func TestDeltaCompatible(t *testing.T) {
	base := Request{
		Ranks:   []int{3, 4, 5},
		Width:   3,
		Samples: 2,
		Threads: 2,
		Base:    10,
		Want2D:  true,
		Want3D:  true,
	}
	if !deltaCompatible(base, base) {
		t.Fatal("request not compatible with itself")
	}
	// These vary freely round to round.
	free := base
	free.Samples, free.Threads, free.Base, free.Compress, free.Delta = 5, 1, 99, true, true
	if !deltaCompatible(base, free) {
		t.Error("Samples/Threads/Base/Compress/Delta changes broke compatibility")
	}
	// These define the XOR-comparable shape.
	for name, mutate := range map[string]func(*Request){
		"GlobalIndex": func(r *Request) { r.GlobalIndex = true },
		"Width":       func(r *Request) { r.Width = 4 },
		"Detail":      func(r *Request) { r.Detail = true },
		"Want2D":      func(r *Request) { r.Want2D = false },
		"Want3D":      func(r *Request) { r.Want3D = false },
		"RankCount":   func(r *Request) { r.Ranks = r.Ranks[:2] },
		"RankValues":  func(r *Request) { r.Ranks = []int{3, 4, 6} },
	} {
		mut := base
		mutate(&mut)
		if deltaCompatible(base, mut) {
			t.Errorf("%s change reported compatible", name)
		}
	}
}

// TestKeyedWalkerIsolation checks that interleaved keys never cross tries:
// two daemons streaming through one engine each see their own round
// continuity, and their deltas fold to their own reference trees.
func TestKeyedWalkerIsolation(t *testing.T) {
	app, st := testApp(t, 12, 1)
	eng := New(app, st, 2)
	reqFor := func(ranks []int, round int) Request {
		return Request{
			Ranks:   ranks,
			Width:   len(ranks),
			Samples: 2,
			Base:    round * 2,
			Want3D:  true,
			Delta:   true,
		}
	}
	ranksA, ranksB := []int{0, 1, 2, 3, 4, 5}, []int{6, 7, 8, 9, 10, 11}
	var liveA, liveB *trace.Tree
	for round := 0; round < 3; round++ {
		ba := eng.SampleKeyed(0, reqFor(ranksA, round))
		bb := eng.SampleKeyed(1, reqFor(ranksB, round))
		if round == 0 {
			liveA = ownedTree(t, ba.Tree3D, trace.WireV2)
			liveB = ownedTree(t, bb.Tree3D, trace.WireV2)
		} else {
			if !ba.DeltaOK || !bb.DeltaOK {
				t.Fatalf("round %d: key continuity broken (A=%v B=%v)", round, ba.DeltaOK, bb.DeltaOK)
			}
			da := ownedDelta(t, ba.Delta3D, trace.WireV2)
			db := ownedDelta(t, bb.Delta3D, trace.WireV2)
			if err := trace.ApplyDelta(liveA, da); err != nil {
				t.Fatal(err)
			}
			if err := trace.ApplyDelta(liveB, db); err != nil {
				t.Fatal(err)
			}
			da.Release()
			db.Release()
		}
		ba.Release()
		bb.Release()

		_, wantA := legacyTrees(app, st, reqFor(ranksA, round))
		_, wantB := legacyTrees(app, st, reqFor(ranksB, round))
		assertTreesMatch(t, "daemon A", liveA, wantA)
		assertTreesMatch(t, "daemon B", liveB, wantB)
	}
}
