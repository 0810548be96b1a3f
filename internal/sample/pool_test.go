package sample

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"stat/internal/mpisim"
	"stat/internal/stackwalk"
	"stat/internal/trace"
)

// poolTimeout bounds every wait in the pool tests, so a pool that loses
// or starves a slot fails the test instead of hanging it.
const poolTimeout = 30 * time.Second

// waitOrFail waits for wg, failing the test after poolTimeout.
func waitOrFail(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(poolTimeout):
		t.Fatalf("%s: still blocked after %v (deadlock or lost slot)", what, poolTimeout)
	}
}

// encode3D is the v3 encoding of a batch's 3D tree. It reports a failure
// with t.Error, so daemon goroutines may call it.
func encode3D(t *testing.T, b Batch) []byte {
	t.Helper()
	e, err := b.Tree3D.MarshalBinaryV(trace.WireV3)
	if err != nil {
		t.Error(err)
	}
	return e
}

// legacy3D is the v3 encoding of the legacy reference's 3D tree; like
// encode3D it is safe on any goroutine.
func legacy3D(t *testing.T, app *mpisim.App, st *stackwalk.SymbolTable, req Request) []byte {
	t.Helper()
	w2, w3 := legacyTrees(app, st, req)
	defer w2.Release()
	defer w3.Release()
	e, err := w3.MarshalBinaryV(trace.WireV3)
	if err != nil {
		t.Error(err)
	}
	return e
}

// TestPoolSlotWaitCounted: a walk that finds every slot taken counts its
// blocked time in Stats.SlotWaitNanos; uncontended walks count nothing.
func TestPoolSlotWaitCounted(t *testing.T) {
	app, st := testApp(t, 8, 1)
	eng := New(app, st, 1)
	req := Request{Ranks: []int{0, 4}, Width: 2, Samples: 2, Threads: 1, Want3D: true}
	b := eng.Sample(req)
	b.Release()
	if w := eng.Stats().SlotWaitNanos; w != 0 {
		t.Fatalf("uncontended walk counted %d ns of slot wait", w)
	}
	eng.acquireSlot() // the engine's one slot, taken from outside
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := eng.Sample(req)
		b.Release()
	}()
	const hold = 20 * time.Millisecond
	time.Sleep(hold)
	eng.releaseSlot()
	waitOrFail(t, &wg, "the blocked Sample")
	if w := eng.Stats().SlotWaitNanos; w < int64(hold)/2 {
		t.Errorf("SlotWaitNanos = %d after a walk blocked for about %v", w, hold)
	}
}

// TestPoolNoDeadlock drives every slot user at once through a two-slot
// engine — resident keyed walkers and pooled Sample calls, many daemons
// each — and requires that all of them finish, every tree matching the
// legacy reference, with every slot free at the end.
func TestPoolNoDeadlock(t *testing.T) {
	app, st := testApp(t, 48, 1)
	eng := New(app, st, 2)
	rounds := 12
	if raceEnabled {
		rounds = 6
	}
	const daemons = 12
	reqFor := func(d, round int) Request {
		ranks := []int{d, d + daemons, d + 2*daemons, d + 3*daemons}
		return Request{Ranks: ranks, Width: len(ranks), Samples: 2, Threads: 1,
			Base: 2 * round, Want2D: true, Want3D: true}
	}
	errs := make(chan error, daemons*rounds)
	var wg sync.WaitGroup
	for d := 0; d < daemons; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				req := reqFor(d, round)
				var b Batch
				if d%2 == 0 { // streaming: the resident keyed walker
					b = eng.SampleKeyed(d, req)
				} else {
					b = eng.Sample(req)
				}
				if !bytes.Equal(encode3D(t, b), legacy3D(t, app, st, req)) {
					errs <- fmt.Errorf("daemon %d round %d: tree differs from the legacy reference", d, round)
				}
				b.Release()
			}
		}()
	}
	waitOrFail(t, &wg, "concurrent keyed and pooled rounds")
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := len(eng.slots); n != 0 {
		t.Errorf("%d walk slots still held after every round finished", n)
	}
}
