package tbon

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"stat/internal/topology"
)

// TestWaitObserverFires checks that each engine reports reduce-wait
// observations and that observing changes nothing about the result.
func TestWaitObserverFires(t *testing.T) {
	topo, err := topology.Balanced(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := New(topo, nil)
	for _, engine := range []Engine{EngineConcurrent, EnginePipelined} {
		var calls, total atomic.Int64
		opts := ReduceOptions{
			Engine: engine,
			WaitObserver: func(ns int64) {
				calls.Add(1)
				total.Add(ns)
			},
		}
		out, _, err := n.ReduceWith(opts, leafValue, sumFilter)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if got, _ := strconv.Atoi(string(out)); got != 16*17/2 {
			t.Errorf("%v: sum = %d, want %d", engine, got, 16*17/2)
		}
		if calls.Load() == 0 {
			t.Errorf("%v: wait observer never fired", engine)
		}
		if total.Load() < 0 {
			t.Errorf("%v: negative total wait", engine)
		}

		// And without the observer, the same reduction still works (the
		// nil-observer fast path).
		opts.WaitObserver = nil
		out2, _, err := n.ReduceWith(opts, leafValue, sumFilter)
		if err != nil {
			t.Fatalf("%v unobserved: %v", engine, err)
		}
		if string(out2) != string(out) {
			t.Errorf("%v: observed %q, unobserved %q", engine, out, out2)
		}
	}
}

// TestWaitObserverIsGateAdmission pins what the pipelined engine's
// reduce-wait measures: one observation per payload admitted through the
// gate (every node but the root), timing only the admission. On one
// worker every payload is the head of line, so admission never blocks —
// however slow the leaves are to produce, their production time must not
// show up as wait.
func TestWaitObserverIsGateAdmission(t *testing.T) {
	const leaves, leafDelay = 12, 2 * time.Millisecond
	topo, err := topology.Balanced(2, leaves)
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	for _, lvl := range topo.Levels {
		nodes += len(lvl)
	}
	slowLeaf := func(i int) ([]byte, error) {
		time.Sleep(leafDelay)
		return leafValue(i)
	}
	n := New(topo, nil)
	for _, workers := range []int{1, 4} {
		var calls, total atomic.Int64
		_, _, err := n.ReduceWith(ReduceOptions{
			Workers: workers,
			WaitObserver: func(ns int64) {
				calls.Add(1)
				total.Add(ns)
			},
		}, slowLeaf, sumFilter)
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if got, want := calls.Load(), int64(nodes-1); got != want {
			t.Errorf("w=%d: %d wait observations, want one per non-root node (%d)", workers, got, want)
		}
		if workers == 1 {
			if wait, produce := time.Duration(total.Load()), leaves*leafDelay; wait >= produce/2 {
				t.Errorf("w=1: head-of-line admissions waited %v in total; leaf production took %v", wait, produce)
			}
		}
	}
}
