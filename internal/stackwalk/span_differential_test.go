package stackwalk_test

import (
	"bytes"
	"fmt"
	"testing"

	"stat/internal/mpisim"
	"stat/internal/sample"
	"stat/internal/stackwalk"
	"stat/internal/trace"
)

// edgeTable builds a symbol table over the simulated layout that breaks
// the one-function-one-range shape the sampling engine's span edges could
// otherwise lean on:
//   - MPI_Waitall's successor (the progress wait) is missing, and the
//     pollfcn symbol covers only its first 0x100 bytes, so frames fall in
//     symbol gaps ("??"), some of them beside named siblings;
//   - MPI_Barrier is split into two symbols with the same name;
//   - the hung task's send and the waiting task's MPI_Waitall share one
//     name, so one trie edge is reached through two symbols' ranges.
func edgeTable(t *testing.T) *stackwalk.SymbolTable {
	t.Helper()
	var syms []stackwalk.Sym
	for _, f := range mpisim.Functions() {
		s := stackwalk.Sym{Name: f.Name, Addr: f.Addr, Size: f.Size}
		switch f.Name {
		case mpisim.FnProgressWait:
			continue
		case mpisim.FnPollfcn:
			s.Size = 0x100
		case mpisim.FnBarrier:
			syms = append(syms, stackwalk.Sym{Name: s.Name, Addr: s.Addr, Size: 0x100})
			s.Addr, s.Size = s.Addr+0x100, s.Size-0x100
		case mpisim.FnSendOrStall, mpisim.FnWaitall:
			s.Name = "exchange"
		}
		syms = append(syms, s)
	}
	img, err := stackwalk.BuildImage(syms, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stackwalk.ParseImage(img)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// legacyTrees folds req's stacks one sample at a time through the plain
// Walker — the per-sample loop the sampling engine replaced.
func legacyTrees(app *mpisim.App, st *stackwalk.SymbolTable, req sample.Request) (t2, t3 *trace.Tree) {
	t2, t3 = trace.NewTree(req.Width), trace.NewTree(req.Width)
	w := stackwalk.NewWalker(app, st)
	for local, rank := range req.Ranks {
		for thread := 0; thread < req.Threads; thread++ {
			for s := 0; s < req.Samples; s++ {
				var frames []trace.Frame
				if req.Detail {
					frames = w.SampleDetailed(rank, thread, req.Base+s)
				} else {
					frames = w.Sample(rank, thread, req.Base+s)
				}
				tr := trace.Trace{Task: local, Frames: frames}
				t3.Add(tr)
				if s == req.Samples-1 {
					t2.Add(tr)
				}
			}
		}
	}
	return t2, t3
}

func assertSameBytes(t *testing.T, label string, got, want *trace.Tree) {
	t.Helper()
	for _, v := range []uint8{trace.WireV2, trace.WireV3} {
		g, err := got.MarshalBinaryV(v)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.MarshalBinaryV(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: v%d encoding differs from the legacy reference\n got:\n%s\nwant:\n%s", label, v, got, want)
		}
	}
}

// TestSpanEdgesMatchLegacy is the span-edge differential: over a symbol
// table with gaps and repeated names, at plain and detailed granularity
// (flipping back and forth on one warm walker, with drifting stacks), and
// with the resolver cache past its entry cap so novel names carry
// stackwalk.OverflowID, the sampling engine's trees are byte-identical to
// the legacy per-sample fold's.
func TestSpanEdgesMatchLegacy(t *testing.T) {
	app, err := mpisim.NewRing(12, mpisim.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	st := edgeTable(t)
	for _, capped := range []bool{false, true} {
		t.Run(fmt.Sprintf("capped=%v", capped), func(t *testing.T) {
			if capped {
				defer stackwalk.SetCacheEntryCapForTest(6)()
			}
			eng := sample.New(app, st, 1)
			req := sample.Request{Ranks: []int{0, 1, 2, 3, 5, 8}, Width: 6, Samples: 5, Threads: 2,
				Want2D: true, Want3D: true}
			for round := 0; round < 8; round++ {
				req.Base = round * req.Samples
				req.Detail = round%4 >= 2
				b := eng.Sample(req)
				w2, w3 := legacyTrees(app, st, req)
				label := fmt.Sprintf("round %d detail=%v", round, req.Detail)
				assertSameBytes(t, label+"/3D", b.Tree3D, w3)
				assertSameBytes(t, label+"/2D", b.Tree2D, w2)
				b.Release()
				w2.Release()
				w3.Release()
			}
			// Past the cap every uncached resolution is a miss, so the
			// misses outrun the cap only if the capped path really ran.
			if s := eng.Stats(); capped && s.PCCacheMisses <= 2*6 {
				t.Errorf("PCCacheMisses = %d; the cache never went past its cap", s.PCCacheMisses)
			}
		})
	}
}
