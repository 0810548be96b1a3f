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

// TestPoolPinnedPrefetchKeepsSlots: a pinned prefetch walker holds a
// walker, never a walk slot. With two workers and one prefetch
// outstanding, two Sample calls must both walk and hold their batches at
// the same time — when the pin held one of the two walkers the pool had,
// the second call blocked until the first batch was released.
func TestPoolPinnedPrefetchKeepsSlots(t *testing.T) {
	app, st := testApp(t, 16, 1)
	eng := New(app, st, 2)
	pinReq := Request{Ranks: []int{0, 8}, Width: 2, Samples: 2, Threads: 1, Want3D: true}
	next := pinReq
	next.Base = pinReq.Samples
	b, pre := eng.SampleOverlap(nil, pinReq, &next)
	b.Release()
	if pre == nil {
		t.Fatal("no prefetch started at two workers")
	}
	defer pre.Cancel()

	reqs := []Request{
		{Ranks: []int{1, 9, 3}, Width: 3, Samples: 3, Threads: 1, Want3D: true},
		{Ranks: []int{2, 10, 4}, Width: 3, Samples: 3, Threads: 1, Want3D: true},
	}
	var held, done sync.WaitGroup
	release := make(chan struct{})
	got := make([][]byte, len(reqs))
	for i, req := range reqs {
		held.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			b := eng.Sample(req)
			got[i] = encode3D(t, b)
			held.Done()
			<-release // hold the batch until both are held
			b.Release()
		}()
	}
	heldCh := make(chan struct{})
	go func() {
		held.Wait()
		close(heldCh)
	}()
	select {
	case <-heldCh:
	case <-time.After(poolTimeout):
		// Let the held batch go so the blocked call can finish, then fail.
		close(release)
		done.Wait()
		t.Fatalf("two Sample calls could not hold batches at once beside a pinned prefetch")
	}
	close(release)
	waitOrFail(t, &done, "releasing the held batches")
	for i, req := range reqs {
		if !bytes.Equal(got[i], legacy3D(t, app, st, req)) {
			t.Errorf("daemon %d: tree differs from the legacy reference", i)
		}
	}
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
// engine — overlapped daemons claiming, missing and canceling prefetches,
// resident keyed walkers, quiesced Sample calls — and requires that all
// of them finish, every tree matching the legacy reference, with every
// prefetch unpinned and every slot free at the end.
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
	check := func(d, round int, req Request, b Batch) error {
		if !bytes.Equal(encode3D(t, b), legacy3D(t, app, st, req)) {
			return fmt.Errorf("daemon %d round %d: tree differs from the legacy reference", d, round)
		}
		return nil
	}
	errs := make(chan error, daemons*rounds)
	var wg sync.WaitGroup
	for d := 0; d < daemons; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pre *Prefetch
			defer func() { pre.Cancel() }()
			for round := 0; round < rounds; round++ {
				req := reqFor(d, round)
				var b Batch
				switch d % 4 {
				case 0, 1: // overlapped; the d%4 == 1 daemons guess wrong every third round
					next := reqFor(d, round+1)
					if d%4 == 1 && round%3 == 0 {
						next.Base++
					}
					b, pre = eng.SampleOverlap(pre, req, &next)
				case 2: // streaming: the resident keyed walker
					b = eng.SampleKeyed(d, req)
				default:
					b = eng.Sample(req)
				}
				if err := check(d, round, req, b); err != nil {
					errs <- err
				}
				b.Release()
				if d%4 == 0 && round%4 == 3 {
					pre.Cancel() // the session ends and a new one starts
					pre = nil
				}
			}
		}()
	}
	waitOrFail(t, &wg, "concurrent claims, cancels and keyed rounds")
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := eng.prefetches.Load(); n != 0 {
		t.Errorf("%d prefetches still pinned after every daemon canceled", n)
	}
	if n := len(eng.slots); n != 0 {
		t.Errorf("%d walk slots still held after every round finished", n)
	}
}
