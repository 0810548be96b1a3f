package tbon

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"stat/internal/topology"
)

// TestWaitObserverFires checks that the engine reports reduce-wait
// observations and that observing changes nothing about the result.
func TestWaitObserverFires(t *testing.T) {
	topo, err := topology.Balanced(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := New(topo)
	var calls, total atomic.Int64
	opts := ReduceOptions{
		WaitObserver: func(ns int64) {
			calls.Add(1)
			total.Add(ns)
		},
	}
	out, _, err := n.ReduceWith(opts, leafValue, sumFilter)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := strconv.Atoi(string(out)); got != 16*17/2 {
		t.Errorf("sum = %d, want %d", got, 16*17/2)
	}
	if calls.Load() == 0 {
		t.Error("wait observer never fired")
	}
	if total.Load() < 0 {
		t.Error("negative total wait")
	}

	// And without the observer, the same reduction still works (the
	// nil-observer fast path).
	opts.WaitObserver = nil
	out2, _, err := n.ReduceWith(opts, leafValue, sumFilter)
	if err != nil {
		t.Fatalf("unobserved: %v", err)
	}
	if string(out2) != string(out) {
		t.Errorf("observed %q, unobserved %q", out, out2)
	}
}

// TestWaitObserverIsGateAdmission pins what the engine's
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
	n := New(topo)
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
