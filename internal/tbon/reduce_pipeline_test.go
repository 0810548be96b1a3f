package tbon

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stat/internal/topology"
)

func TestPipelinedMatchesSeqBasic(t *testing.T) {
	topo, err := topology.Balanced(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	net := New(topo)
	want, _, err := net.ReduceWith(seqFold, leafValue, sumFilter)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := net.ReduceWith(ReduceOptions{}, leafValue, sumFilter)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("pipelined %v != seq %v", got, want)
	}
}

// TestPipelinedDefaultGateBound pins the zero-budget gate through the
// engine: on a flat tree whose leaves are all payloadBytes long (the
// root's own output is never charged), PeakInFlightBytes counts bytes —
// a whole number of leaf payloads — and stays within the per-worker
// bound even when folding is far slower than production. One worker is
// the sequential fold: exactly one payload is ever resident.
func TestPipelinedDefaultGateBound(t *testing.T) {
	const leaves, payloadBytes = 48, 1024
	topo, err := topology.Flat(leaves)
	if err != nil {
		t.Fatal(err)
	}
	net := New(topo)
	leaf := func(i int) ([]byte, error) {
		b := make([]byte, payloadBytes)
		b[0] = byte(i)
		return b, nil
	}
	slowConcat := BytesFilter(func(children [][]byte) ([]byte, error) {
		time.Sleep(100 * time.Microsecond)
		return bytes.Join(children, nil), nil
	})
	want, _, err := net.ReduceWith(seqFold, leaf, slowConcat)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		got, stats, err := net.ReduceWith(ReduceOptions{Workers: workers}, leaf, slowConcat)
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("w=%d: output differs from the sequential fold", workers)
		}
		peak := stats.PeakInFlightBytes
		if peak < payloadBytes || peak%payloadBytes != 0 {
			t.Fatalf("w=%d: peak in-flight %d is not a whole number of %d-byte payloads", workers, peak, payloadBytes)
		}
		// Admitted payloads: at most one per worker beyond the head. Each
		// worker may hold one more awaiting admission.
		if limit := int64(2*workers+1) * payloadBytes; peak > limit {
			t.Errorf("w=%d: peak in-flight %d bytes exceeds %d", workers, peak, limit)
		}
		if workers == 1 && peak != payloadBytes {
			t.Errorf("w=1: peak in-flight %d bytes, want exactly one payload (%d)", peak, payloadBytes)
		}
	}
}

// TestPipelinedRespectsBudget checks the engine's memory contract: peak
// in-flight payload bytes never exceed the budget plus one payload (the
// head-of-line bypass that guarantees progress).
func TestPipelinedRespectsBudget(t *testing.T) {
	topo, err := topology.Balanced(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	net := New(topo)
	const payload = 1024
	leaf := func(i int) ([]byte, error) { return make([]byte, payload), nil }
	concat := concatFilter
	// Interior accumulators grow to 8 KiB on this topology, so the
	// largest single in-flight payload is an interior output, not a leaf.
	// The contract: resident payload bytes never exceed the budget plus
	// one payload per worker (production cannot be gated, since a
	// payload's size is unknown until produced).
	const maxSingle = 8 * payload
	for _, workers := range []int{1, 8} {
		for _, budget := range []int64{1, 512, payload, 4 * payload, 64 * payload} {
			out, stats, err := net.ReduceWith(
				ReduceOptions{Workers: workers, BudgetBytes: budget}, leaf, concat)
			if err != nil {
				t.Fatalf("w=%d budget %d: %v", workers, budget, err)
			}
			if len(out) != 64*payload {
				t.Fatalf("w=%d budget %d: output %d bytes, want %d", workers, budget, len(out), 64*payload)
			}
			if stats.PeakInFlightBytes == 0 {
				t.Fatalf("w=%d budget %d: peak in-flight not tracked", workers, budget)
			}
			if limit := budget + int64(workers)*maxSingle; stats.PeakInFlightBytes > limit {
				t.Errorf("w=%d budget %d: peak in-flight %d exceeds budget + workers*payload = %d",
					workers, budget, stats.PeakInFlightBytes, limit)
			}
		}
	}

	// One worker is the tightest configuration: peak must stay within
	// budget + a single payload, and a starved budget must keep it there.
	_, tight, err := net.ReduceWith(ReduceOptions{Workers: 1, BudgetBytes: 1}, leaf, concat)
	if err != nil {
		t.Fatal(err)
	}
	if tight.PeakInFlightBytes > 1+maxSingle {
		t.Errorf("1-byte budget, 1 worker peaked at %d bytes", tight.PeakInFlightBytes)
	}
}

func TestPipelinedLeafError(t *testing.T) {
	topo, err := topology.Balanced(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	net := New(topo)
	boom := errors.New("boom")
	leaf := func(i int) ([]byte, error) {
		if i == 11 {
			return nil, boom
		}
		return []byte{byte(i)}, nil
	}
	for _, opts := range []ReduceOptions{
		{},
		{Workers: 1},
		{Workers: 4, BudgetBytes: 1},
	} {
		_, _, err = net.ReduceWith(opts, leaf, concatFilter)
		if !errors.Is(err, boom) {
			t.Fatalf("opts %+v: error %v does not wrap leaf error", opts, err)
		}
		if !strings.Contains(err.Error(), "leaf 11") {
			t.Fatalf("error %q does not name the failing leaf", err)
		}
	}
}

func TestPipelinedFilterError(t *testing.T) {
	topo, err := topology.Balanced(3, 27)
	if err != nil {
		t.Fatal(err)
	}
	net := New(topo)
	boom := errors.New("merge exploded")
	calls := 0
	var mu sync.Mutex
	filter := func(children []*Lease) (*Lease, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 5 {
			return nil, boom
		}
		return concatFilter(children)
	}
	_, _, err = net.ReduceWith(ReduceOptions{Workers: 4}, leafValue, filter)
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap filter error", err)
	}
	if !strings.Contains(err.Error(), "filter at node") {
		t.Fatalf("error %q does not name the failing node", err)
	}
}

// TestPipelinedTinyBudgetDeepTree drives the deadlock-prone corner: a
// deep chain and a wide tree under a 1-byte budget, where only the
// head-of-line bypass keeps payloads moving. A hang here fails the test
// by timeout.
func TestPipelinedTinyBudgetDeepTree(t *testing.T) {
	for _, build := range []func() (*topology.Tree, error){
		func() (*topology.Tree, error) { return topology.Chain(32) },
		func() (*topology.Tree, error) { return topology.Flat(128) },
		func() (*topology.Tree, error) { return topology.Ragged(3, 4, 6) },
	} {
		topo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		net := New(topo)
		want, _, err := net.ReduceWith(seqFold, leafValue, concatFilter)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := net.ReduceWith(
			ReduceOptions{Workers: 8, BudgetBytes: 1}, leafValue, concatFilter)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatal("tiny-budget output differs from seq")
		}
	}
}

// TestPipelinedPassThroughFilterBudget drives the charge-transfer corner
// of the leased-buffer budget accounting: a filter that returns a
// retained child lease as its output moves the payload's charge up an
// edge rather than stacking a second charge on the same lease. Without
// chargeGate's release-then-replace rule this deadlocks under a tiny
// budget — the child's charge leaks, the gate head never advances past
// its rank, and every non-head acquire blocks forever (caught here by the
// test timeout).
func TestPipelinedPassThroughFilterBudget(t *testing.T) {
	passThrough := func(children []*Lease) (*Lease, error) {
		l := children[len(children)-1]
		l.Retain()
		return l, nil
	}
	for _, build := range []func() (*topology.Tree, error){
		func() (*topology.Tree, error) { return topology.Chain(16) },
		func() (*topology.Tree, error) { return topology.Balanced(2, 16) },
		func() (*topology.Tree, error) { return topology.Ragged(5, 3, 5) },
	} {
		topo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		net := New(topo)
		leaf := func(i int) ([]byte, error) {
			b := make([]byte, 128)
			b[0] = byte(i)
			return b, nil
		}
		want, _, err := net.ReduceWith(seqFold, leaf, passThrough)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{1, 64, 1 << 20} {
			got, _, err := net.ReduceWith(
				ReduceOptions{Workers: 4, BudgetBytes: budget}, leaf, passThrough)
			if err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("budget %d: pass-through output differs from seq", budget)
			}
		}
	}
}

// TestPipelinedFailureReleasesStrandedLeases pins the failed-run sweep:
// after a filter error aborts a budgeted reduction, every lease that was
// buffered or half-folded must still see its free hook run, or pooled
// buffers leak from their pools for good.
func TestPipelinedFailureReleasesStrandedLeases(t *testing.T) {
	topo, err := topology.Balanced(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	net := New(topo)
	leaf := func(i int) ([]byte, error) { return []byte{byte(i)}, nil }
	boom := errors.New("boom")
	var calls, outs, freed atomic.Int64
	filter := func(children []*Lease) (*Lease, error) {
		if calls.Add(1) == 9 {
			return nil, boom
		}
		outs.Add(1)
		return NewLease([]byte{1}, func([]byte) { freed.Add(1) }), nil
	}
	_, _, err = net.ReduceWith(ReduceOptions{Workers: 4, BudgetBytes: 8}, leaf, filter)
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the filter error", err)
	}
	// Every hooked output lease must have been freed: consumed by a later
	// fold, rolled back at the gate, or swept by the failure path.
	if f, p := freed.Load(), outs.Load(); f != p {
		t.Fatalf("%d filter outputs produced, only %d freed after failure", p, f)
	}

	// A fold that fails keeps its accumulator open, and the sweep must
	// Drop it along with every other open one.
	for _, opts := range []ReduceOptions{{Workers: 1}, {Workers: 4}, {Workers: 4, BudgetBytes: 8}, {Workers: 4, BudgetBytes: 1 << 30}} {
		before := LiveLeases()
		f := &keepOnErrorFold{failNode: topo.Levels[1][1].ID}
		_, _, err := net.ReduceNodeLeasedWith(opts, func(i int) (*Lease, error) {
			return NewLease([]byte{byte(i)}, nil), nil
		}, f)
		if !errors.Is(err, errKeepOnError) {
			t.Fatalf("%+v: error %v does not wrap the fold error", opts, err)
		}
		if f.drops.Load() == 0 {
			t.Errorf("%+v: no accumulator dropped after a failed fold", opts)
		}
		if after := LiveLeases(); after != before {
			t.Errorf("%+v: %d leases live after the failed reduction, %d before", opts, after, before)
		}
	}
}

// TestKWayFoldCalls pins the fold width. On a fan-in-k balanced tree under
// a roomy byte budget every interior node defers until its whole child row
// has arrived and makes exactly one Fold call with all k children; with
// no room to defer (a 1-byte budget, or one worker under the default
// bound) every call folds at most one child into the accumulator, which
// the byte Filter sees as [acc, child]. Every configuration's
// output matches the one-worker fold byte for byte, and no lease outlives
// a reduction.
func TestKWayFoldCalls(t *testing.T) {
	const fanout = 8
	topo, err := topology.Balanced(2, fanout*fanout)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Levels) != 3 || len(topo.Root.Children) != fanout {
		t.Fatalf("unexpected Balanced(2, %d) shape", fanout*fanout)
	}
	leaf := func(i int) (*Lease, error) { return NewLease([]byte(fmt.Sprintf("<%02d>", i)), nil), nil }
	run := func(label string, opts ReduceOptions) ([]byte, map[int][]int) {
		t.Helper()
		var mu sync.Mutex
		calls := map[int][]int{} // inputs per call, by node ID
		filter := leaseFold(func(ctx *FilterCtx, children []*Lease) (*Lease, error) {
			mu.Lock()
			calls[ctx.Node.ID] = append(calls[ctx.Node.ID], len(children))
			mu.Unlock()
			var out []byte
			for _, c := range children {
				out = append(out, c.Bytes()...)
			}
			return NewLease(out, nil), nil
		})
		before := LiveLeases()
		out, _, err := New(topo).ReduceNodeLeasedWith(opts, leaf, filter)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if after := LiveLeases(); after != before {
			t.Errorf("%s: %d leases live after reduction, %d before", label, after, before)
		}
		return out, calls
	}
	interior := append([]*topology.Node{topo.Root}, topo.Levels[1]...)
	want, _ := run("seq", seqFold)
	for _, workers := range []int{1, 2, 4, 8} {
		label := fmt.Sprintf("w=%d/roomy", workers)
		out, calls := run(label, ReduceOptions{Workers: workers, BudgetBytes: 1 << 30})
		if !bytes.Equal(out, want) {
			t.Fatalf("%s: output differs from the sequential fold", label)
		}
		for _, nd := range interior {
			if got := calls[nd.ID]; len(got) != 1 || got[0] != fanout {
				t.Errorf("%s: node %d folded in calls of %v inputs, want one call of %d", label, nd.ID, got, fanout)
			}
		}
		for _, opts := range []ReduceOptions{{Workers: workers, BudgetBytes: 1}, {Workers: 1}} {
			label := fmt.Sprintf("w=%d/budget=%d", opts.Workers, opts.BudgetBytes)
			out, calls := run(label, opts)
			if !bytes.Equal(out, want) {
				t.Fatalf("%s: output differs from the sequential fold", label)
			}
			for _, nd := range interior {
				if got := calls[nd.ID]; len(got) != fanout || slices.Max(got) > 2 {
					t.Errorf("%s: node %d folded in calls of %v inputs, want %d calls of at most 2", label, nd.ID, got, fanout)
				}
			}
		}
	}
	for name, opts := range engineVariants() {
		if out, _ := run(name, opts); !bytes.Equal(out, want) {
			t.Errorf("%s: output differs from the sequential fold", name)
		}
	}
}

// TestByteGateHeadBypass exercises the gate directly: a payload larger
// than the whole budget is admitted when its rank is the head, and a
// later rank blocks until the head's payload is consumed and refunded.
func TestByteGateHeadBypass(t *testing.T) {
	g := newByteGate(10, 1, 3)
	if !g.acquire(0, 100) {
		t.Fatal("head rank not admitted over budget")
	}
	// Rank 1 must block: budget exhausted and it is not the head. Run it
	// in a goroutine and require that consuming+refunding 0 unblocks it.
	admitted := make(chan struct{})
	go func() {
		g.acquire(1, 5)
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatal("non-head rank admitted while over budget")
	default:
	}
	g.consumeRank(0)
	g.refund(100)
	<-admitted // head advanced to 1; must now be admitted
	if got := g.peakBytes(); got != 100 {
		t.Fatalf("peak %d, want 100", got)
	}
}

// TestByteGateHeadAdvancesWithoutRefund pins the decoupling that keeps
// retaining filters deadlock-free: consuming the head rank must admit the
// next rank even while the consumed payload's bytes remain charged.
func TestByteGateHeadAdvancesWithoutRefund(t *testing.T) {
	g := newByteGate(10, 1, 3)
	if !g.acquire(0, 100) {
		t.Fatal("head rank not admitted over budget")
	}
	admitted := make(chan struct{})
	go func() {
		g.acquire(1, 5)
		close(admitted)
	}()
	g.consumeRank(0) // bytes NOT refunded — the payload is retained
	<-admitted       // rank 1 is the head now; must be admitted over budget
	if got := g.peakBytes(); got != 105 {
		t.Fatalf("peak %d, want 105", got)
	}
}

// TestByteGateDefaultAdmitsOnePerWorker pins the zero-budget gate: at
// most slots payloads are admitted out of fold order (ahead of the head),
// the next non-head payload blocks until one is refunded, the head is
// always admitted, and the peak is reported in bytes, not payloads.
func TestByteGateDefaultAdmitsOnePerWorker(t *testing.T) {
	const slots = 3
	g := newByteGate(0, slots, 8)
	for rank := 1; rank <= slots; rank++ {
		if !g.acquire(rank, 100) {
			t.Fatalf("rank %d not admitted with %d slots", rank, slots)
		}
	}
	admitted := make(chan struct{})
	go func() {
		g.acquire(slots+1, 100)
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatalf("%d payloads admitted out of fold order with %d slots", slots+1, slots)
	case <-time.After(20 * time.Millisecond):
	}
	if !g.acquire(0, 7) {
		t.Fatal("head rank not admitted with every slot taken")
	}
	g.consumeRank(0)
	g.refund(7)
	select {
	case <-admitted:
		t.Fatalf("rank %d admitted while ranks 1..%d still hold every slot", slots+1, slots)
	case <-time.After(20 * time.Millisecond):
	}
	g.consumeRank(1)
	g.refund(100)
	<-admitted
	if got, want := g.peakBytes(), int64((slots+1)*100+7); got != want {
		t.Fatalf("peak %d, want %d bytes", got, want)
	}
}

func TestByteGateStopAborts(t *testing.T) {
	g := newByteGate(1, 1, 2)
	if !g.acquire(0, 1) {
		t.Fatal("first acquire failed")
	}
	aborted := make(chan bool)
	go func() { aborted <- g.acquire(1, 1) }()
	g.stop()
	if ok := <-aborted; ok {
		t.Fatal("acquire succeeded after stop")
	}
}

// TestPipelinedStress shuffles worker counts and budgets on one shared
// network to shake out scheduling races (meaningful under -race).
func TestPipelinedStress(t *testing.T) {
	topo, err := topology.Ragged(11, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	net := New(topo)
	want, _, err := net.ReduceWith(seqFold, leafValue, concatFilter)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 1; w <= 4; w++ {
		for _, budget := range []int64{0, 1, 100} {
			wg.Add(1)
			go func(w int, budget int64) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					got, _, err := net.ReduceWith(
						ReduceOptions{Workers: w, BudgetBytes: budget},
						leafValue, concatFilter)
					if err != nil {
						t.Errorf("w=%d budget=%d: %v", w, budget, err)
						return
					}
					if !bytes.Equal(want, got) {
						t.Errorf("w=%d budget=%d: output mismatch", w, budget)
						return
					}
				}
			}(w, budget)
		}
	}
	wg.Wait()
}

func ExampleNetwork_ReduceWith() {
	topo, _ := topology.Balanced(2, 9)
	net := New(topo)
	leaf := func(i int) ([]byte, error) { return []byte{byte(i)}, nil }
	concat := BytesFilter(func(children [][]byte) ([]byte, error) {
		var out []byte
		for _, c := range children {
			out = append(out, c...)
		}
		return out, nil
	})
	out, _, _ := net.ReduceWith(ReduceOptions{
		BudgetBytes: 1 << 20, // keep at most ~1 MiB of payloads in flight
	}, leaf, concat)
	fmt.Println(out)
	// Output: [0 1 2 3 4 5 6 7 8]
}

// emitCounter concatenates like concatFilter and records, per node, how
// many times Emit ran and the Missing set it last saw.
type emitCounter struct {
	leaseFold
	mu      sync.Mutex
	emits   map[int]int
	missing map[int][]int
}

func (c *emitCounter) Emit(ctx *FilterCtx, acc any) (*Lease, error) {
	c.mu.Lock()
	c.emits[ctx.Node.ID]++
	c.missing[ctx.Node.ID] = slices.Clone(ctx.Missing)
	c.mu.Unlock()
	return c.leaseFold.Emit(ctx, acc)
}

// TestFoldEmitsOncePerNode pins the fold contract's last step: however a
// node's children are grouped into Fold calls — one worker, eight, a
// starved budget or a roomy one — Emit runs exactly once per interior
// node, and under a fault plan whose trailing child is lost it carries
// that loss, though no Fold call ever saw it.
func TestFoldEmitsOncePerNode(t *testing.T) {
	topo := balanced29(t)
	// Leaf 8 (ID 12) is position 2, the last child of interior node 3.
	trailing := &FaultPlan{Crash: map[int]bool{12: true}}
	concat := leaseFold(func(_ *FilterCtx, in []*Lease) (*Lease, error) { return concatFilter(in) })
	for _, workers := range []int{1, 2, 4, 8} {
		for _, budget := range []int64{0, 1, 1 << 30} {
			for _, plan := range []*FaultPlan{nil, trailing} {
				label := fmt.Sprintf("w=%d/budget=%d/faults=%v", workers, budget, plan != nil)
				c := &emitCounter{leaseFold: concat, emits: map[int]int{}, missing: map[int][]int{}}
				before := LiveLeases()
				opts := ReduceOptions{Workers: workers, BudgetBytes: budget, Partial: plan != nil, Faults: plan}
				if _, _, err := New(topo).ReduceNodeLeasedWith(opts, leafIndexData, c); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for _, level := range topo.Levels[:len(topo.Levels)-1] {
					for _, nd := range level {
						if got := c.emits[nd.ID]; got != 1 {
							t.Errorf("%s: node %d emitted %d times, want once", label, nd.ID, got)
						}
						var want []int
						if plan != nil && nd.ID == 3 {
							want = []int{2}
						}
						if got := c.missing[nd.ID]; !slices.Equal(got, want) {
							t.Errorf("%s: node %d emitted with Missing %v, want %v", label, nd.ID, got, want)
						}
					}
				}
				if after := LiveLeases(); after != before {
					t.Errorf("%s: %d leases live after reduction, %d before", label, after, before)
				}
			}
		}
	}
}

// keepOnErrorFold concatenates like concatFilter, except that the Fold
// taking failNode's child 2 fails after folding it and hands back its
// accumulator, as core's result filter does. Drop counts the
// accumulators the failure sweep returns.
type keepOnErrorFold struct {
	failNode int
	drops    atomic.Int64
}

var errKeepOnError = errors.New("fold failed")

func (f *keepOnErrorFold) Fold(ctx *FilterCtx, acc any, in []*Lease) (any, error) {
	acc, err := leaseFold(func(_ *FilterCtx, in []*Lease) (*Lease, error) { return concatFilter(in) }).Fold(ctx, acc, in)
	if err == nil && ctx.Node.ID == f.failNode && slices.ContainsFunc(ctx.Spans, func(s Span) bool { return s.From == 2 }) {
		err = errKeepOnError
	}
	return acc, err
}

func (f *keepOnErrorFold) Emit(_ *FilterCtx, acc any) (*Lease, error) { return acc.(*Lease), nil }

func (f *keepOnErrorFold) Drop(acc any) {
	f.drops.Add(1)
	acc.(*Lease).Release()
}
