package sample

import (
	"slices"
	"testing"

	"stat/internal/mpisim"
)

// checkSpans asserts the span invariant on every node of w's trie: each
// span is exactly the range the walker's current resolver reports for its
// first PC, and leads to the child named by that resolution. A span left
// over from the other granularity (or pointing at a recycled node) fails
// it.
func checkSpans(t *testing.T, label string, w *walker) {
	t.Helper()
	var rec func(path string, n *trieNode)
	rec = func(path string, n *trieNode) {
		for _, sp := range n.spans {
			_, name, lo, hi := w.cache.ResolveSpan(sp.lo)
			if lo != sp.lo || hi-lo != sp.n || sp.c.name != name {
				t.Errorf("%s: span [%#x, +%#x) → %q under %q, but the resolver says [%#x, %#x) → %q",
					label, sp.lo, sp.n, sp.c.name, path, lo, hi, name)
			}
			if !slices.Contains(n.children, sp.c) {
				t.Errorf("%s: span [%#x, +%#x) under %q leads to %q, which is not a child",
					label, sp.lo, sp.n, path, sp.c.name)
			}
		}
		for _, c := range n.children {
			rec(path+"/"+c.name, c)
		}
	}
	rec("", &w.root)
}

// checkPath asserts that the walker's cached path is a chain through its
// current trie — each entry one of the spans of the node the entry before
// it led to, the root's for the first — and that every node on it is
// stamped into the round last walked. A path surviving a trie reset, or
// leading to a node the round never stamped, fails it.
func checkPath(t *testing.T, label string, w *walker) {
	t.Helper()
	if len(w.path) == 0 {
		t.Errorf("%s: the cached path is empty", label)
	}
	n := &w.root
	for d, sp := range w.path {
		if !slices.Contains(n.spans, sp) {
			t.Errorf("%s: path[%d] [%#x, +%#x) → %q is not a span of %q", label, d, sp.lo, sp.n, sp.c.name, n.name)
			return
		}
		if sp.c.epochs[w.slot] != w.epoch {
			t.Errorf("%s: path[%d] leads to %q, which the round did not stamp", label, d, sp.c.name)
		}
		n = sp.c
	}
}

// stacksDiffer reports whether any stack of req's walk differs from the
// same (rank, thread, sample) stack prevBase samples earlier — the
// precondition of every "drifting" assertion: the round really walks
// stacks the previous round did not.
func stacksDiffer(app *mpisim.App, req Request, prevBase int) bool {
	for _, rank := range req.Ranks {
		for thread := 0; thread < req.Threads; thread++ {
			for s := 0; s < req.Samples; s++ {
				if !slices.Equal(app.StackPCs(rank, thread, req.Base+s), app.StackPCs(rank, thread, prevBase+s)) {
					return true
				}
			}
		}
	}
	return false
}

// TestSpanWarmDriftResolvesNothing: at plain granularity a span covers the
// whole function, so once a keyed walker's trie holds the daemon's call
// paths, a drifting round — every spinning stack new at every sample —
// descends on range checks alone and calls the resolver zero times.
func TestSpanWarmDriftResolvesNothing(t *testing.T) {
	app, st := testApp(t, 24, 2)
	eng := New(app, st, 1)
	ranks := make([]int, 20)
	for i := range ranks {
		ranks[i] = i
	}
	req := Request{Ranks: ranks, Width: len(ranks), Samples: 6, Threads: 2,
		Want2D: true, Want3D: true, Compress: true, Delta: true}
	round := func() (resolved int64) {
		before := eng.Stats().PCsResolved
		b := eng.SampleKeyed(3, req)
		b.Release()
		req.Base += req.Samples
		return eng.Stats().PCsResolved - before
	}
	// The call-path population is small: the messager loop's depth varies
	// (0–3 pairs), so a few rounds meet every path.
	quiet := 0
	for i := 0; i < 100 && quiet < 10; i++ {
		if round() == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
	if quiet < 10 {
		t.Fatal("100 drifting rounds did not reach a run of 10 that resolved nothing")
	}
	for i := 0; i < 20; i++ {
		if !stacksDiffer(app, req, req.Base-req.Samples) {
			t.Fatalf("round %d walks the previous round's stacks; the test tests nothing", i)
		}
		if n := round(); n != 0 {
			t.Errorf("warm drifting round %d called the resolver %d times, want 0", i, n)
		}
	}
	checkSpans(t, "warm keyed walker", eng.keyedWalker(3))
}
