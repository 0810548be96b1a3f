package tbon

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"stat/internal/sim"
	"stat/internal/topology"
)

// sumFilter parses child payloads as integers and sums them — an
// associative reduction suitable for any fold grouping.
var sumFilter = BytesFilter(func(children [][]byte) ([]byte, error) {
	total := 0
	for _, c := range children {
		v, err := strconv.Atoi(string(c))
		if err != nil {
			return nil, err
		}
		total += v
	}
	return []byte(strconv.Itoa(total)), nil
})

// concatFilter joins child payloads in order — order-sensitive, verifying
// deterministic child ordering.
var concatFilter = BytesFilter(func(children [][]byte) ([]byte, error) {
	return bytes.Join(children, nil), nil
})

func leafValue(leaf int) ([]byte, error) {
	return []byte(strconv.Itoa(leaf + 1)), nil
}

func TestReduceSum(t *testing.T) {
	for _, build := range []func(int) (*topology.Tree, error){
		topology.Flat,
		func(d int) (*topology.Tree, error) { return topology.Balanced(2, d) },
		func(d int) (*topology.Tree, error) { return topology.Balanced(3, d) },
	} {
		for _, d := range []int{1, 2, 7, 30, 100} {
			topo, err := build(d)
			if err != nil {
				t.Fatal(err)
			}
			n := New(topo)
			out, stats, err := n.ReduceWith(ReduceOptions{}, leafValue, sumFilter)
			if err != nil {
				t.Fatalf("d=%d: %v", d, err)
			}
			want := d * (d + 1) / 2
			if got, _ := strconv.Atoi(string(out)); got != want {
				t.Errorf("d=%d: sum = %d, want %d", d, got, want)
			}
			if stats.Packets == 0 && d > 1 {
				t.Errorf("d=%d: no packets recorded", d)
			}
		}
	}
}

// TestReduceSeqMatchesReduce: the one-worker sequential fold and the
// default worker pool agree on the result and on per-node ingress.
func TestReduceSeqMatchesReduce(t *testing.T) {
	topo, err := topology.Balanced(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	n := New(topo)
	outP, statsP, err := n.ReduceWith(ReduceOptions{}, leafValue, sumFilter)
	if err != nil {
		t.Fatal(err)
	}
	outS, statsS, err := n.ReduceWith(seqFold, leafValue, sumFilter)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outP, outS) {
		t.Errorf("results differ: %q vs %q", outP, outS)
	}
	for id, b := range statsP.NodeInBytes {
		if statsS.NodeInBytes[id] != b {
			t.Errorf("node %d in-bytes: parallel %d, seq %d", id, b, statsS.NodeInBytes[id])
		}
	}
}

func TestReduceChildOrderDeterministic(t *testing.T) {
	topo, err := topology.Balanced(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := New(topo)
	leafLetter := func(leaf int) ([]byte, error) {
		return []byte{byte('a' + leaf)}, nil
	}
	want := "abcdefghijklmnop"
	for i := 0; i < 20; i++ { // concurrency must not reorder children
		out, _, err := n.ReduceWith(ReduceOptions{}, leafLetter, concatFilter)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != want {
			t.Fatalf("iteration %d: %q, want %q", i, out, want)
		}
	}
	outS, _, err := n.ReduceWith(seqFold, leafLetter, concatFilter)
	if err != nil {
		t.Fatal(err)
	}
	if string(outS) != want {
		t.Errorf("seq: %q", outS)
	}
}

func TestReduceLeafError(t *testing.T) {
	topo, _ := topology.Balanced(2, 9)
	n := New(topo)
	boom := errors.New("boom")
	leaf := func(l int) ([]byte, error) {
		if l == 5 {
			return nil, boom
		}
		return leafValue(l)
	}
	if _, _, err := n.ReduceWith(ReduceOptions{}, leaf, sumFilter); err == nil {
		t.Error("parallel reduce swallowed leaf error")
	}
	if _, _, err := n.ReduceWith(seqFold, leaf, sumFilter); !errors.Is(err, boom) {
		t.Errorf("seq reduce error = %v, want wrapped boom", err)
	}
}

// TestReduceFailureReleasesStrandedLeases pins the failure sweep on the
// default worker pool: output leases buffered at a parent or held as a
// partial accumulator must still see their free hooks run after a failed
// reduction, or pooled buffers would leak from their pools.
func TestReduceFailureReleasesStrandedLeases(t *testing.T) {
	topo, err := topology.Balanced(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	n := New(topo)
	boom := errors.New("boom")
	var calls, outs, freed atomic.Int64
	filter := func(children []*Lease) (*Lease, error) {
		if calls.Add(1) == 5 {
			return nil, boom
		}
		outs.Add(1)
		return NewLease([]byte{1}, func([]byte) { freed.Add(1) }), nil
	}
	if _, _, err := n.ReduceWith(ReduceOptions{}, leafValue, filter); !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the filter error", err)
	}
	if f, p := freed.Load(), outs.Load(); f != p {
		t.Fatalf("%d filter outputs produced, only %d freed after failure", p, f)
	}
}

func TestReduceFilterError(t *testing.T) {
	topo, _ := topology.Flat(4)
	n := New(topo)
	bad := func([]*Lease) (*Lease, error) { return nil, errors.New("filter died") }
	if _, _, err := n.ReduceWith(ReduceOptions{}, leafValue, bad); err == nil {
		t.Error("parallel reduce swallowed filter error")
	}
	if _, _, err := n.ReduceWith(seqFold, leafValue, bad); err == nil {
		t.Error("seq reduce swallowed filter error")
	}
}

func TestReduceStatsBytes(t *testing.T) {
	topo, err := topology.Flat(8)
	if err != nil {
		t.Fatal(err)
	}
	n := New(topo)
	leaf := func(l int) ([]byte, error) { return []byte("xxxx"), nil } // 4 bytes each
	fixed := func([]*Lease) (*Lease, error) { return NewLease([]byte("yy"), nil), nil }
	_, stats, err := n.ReduceWith(ReduceOptions{}, leaf, fixed)
	if err != nil {
		t.Fatal(err)
	}
	rootID := topo.Root.ID
	if got := stats.NodeInBytes[rootID]; got != 32 {
		t.Errorf("root in-bytes = %d, want 32", got)
	}
	if got := stats.LevelInBytes[0]; got != 32 {
		t.Errorf("level-0 in = %d, want 32", got)
	}
	if got := stats.MaxInBytesAtLevel(topo, 0); got != 32 {
		t.Errorf("max at level 0 = %d", got)
	}
	if stats.Packets != 8 {
		t.Errorf("packets = %d, want 8", stats.Packets)
	}
}

func TestBroadcast(t *testing.T) {
	topo, err := topology.Balanced(2, 25)
	if err != nil {
		t.Fatal(err)
	}
	n := New(topo)
	payload := []byte("relocated-binary-image")
	got, stats, err := n.Broadcast(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 25 {
		t.Fatalf("leaf copies = %d", len(got))
	}
	for i, c := range got {
		if !bytes.Equal(c, payload) {
			t.Errorf("leaf %d payload mismatch", i)
		}
	}
	if stats.Packets == 0 {
		t.Error("broadcast recorded no packets")
	}
}

func TestTimingModelFlatIsLinear(t *testing.T) {
	model := TimingModel{
		Link: sim.Link{LatencySec: 1e-5, BytesPerSec: 1e9},
		CPU:  sim.CPUCost{PerMessageSec: 1e-4, PerByteSec: 1e-9},
	}
	leafBytes := int64(50000)
	timeFor := func(daemons int, build func(int) (*topology.Tree, error)) float64 {
		topo, err := build(daemons)
		if err != nil {
			t.Fatal(err)
		}
		stats := newStats(len(topo.Levels))
		for _, leaf := range topo.Leaves {
			stats.NodeOutBytes[leaf.ID] = leafBytes
		}
		// Interior nodes: in = sum of children, out = one leaf's worth
		// (union merge keeps size constant).
		var fill func(n *topology.Node) int64
		fill = func(n *topology.Node) int64 {
			if n.IsLeaf() {
				return stats.NodeOutBytes[n.ID]
			}
			var in int64
			for _, c := range n.Children {
				in += fill(c)
			}
			stats.NodeInBytes[n.ID] = in
			stats.NodeOutBytes[n.ID] = leafBytes
			return leafBytes
		}
		fill(topo.Root)
		return model.ReduceTime(topo, stats, nil)
	}

	flat64 := timeFor(64, topology.Flat)
	flat512 := timeFor(512, topology.Flat)
	ratio := flat512 / flat64
	if ratio < 6 || ratio > 10 {
		t.Errorf("flat 8x daemons → %.2fx time, want ≈8x (linear)", ratio)
	}

	deep512 := timeFor(512, func(d int) (*topology.Tree, error) { return topology.Balanced(2, d) })
	if deep512 >= flat512/3 {
		t.Errorf("2-deep (%.4fs) not clearly faster than flat (%.4fs) at 512", deep512, flat512)
	}
}

func TestTimingModelLeafReadiness(t *testing.T) {
	model := TimingModel{Link: sim.Link{LatencySec: 0.001, BytesPerSec: 1e9}}
	topo, _ := topology.Flat(4)
	stats := newStats(len(topo.Levels))
	ready := []float64{0, 0, 5, 0} // one slow daemon
	got := model.ReduceTime(topo, stats, ready)
	if got < 5 {
		t.Errorf("ReduceTime = %g ignores slowest leaf", got)
	}
}

func TestBroadcastTimePipelines(t *testing.T) {
	model := TimingModel{Link: sim.Link{LatencySec: 0, BytesPerSec: 1e6}}
	flat, _ := topology.Flat(128)
	deep, _ := topology.Balanced(2, 128)
	payload := int64(4 << 20)
	tf := model.BroadcastTime(flat, payload)
	td := model.BroadcastTime(deep, payload)
	if td >= tf {
		t.Errorf("tree broadcast (%.3fs) not faster than flat sends (%.3fs)", td, tf)
	}
	// Flat: 128 sequential 4MB sends at 1MB/s = 512s+.
	if tf < 500 {
		t.Errorf("flat broadcast = %.1fs, want >= 500s", tf)
	}
}

// TestReduceManyShapes cross-checks the default worker pool and the sequential fold over a
// sweep of topology shapes and daemon counts with an order-sensitive
// filter.
func TestReduceManyShapes(t *testing.T) {
	for depth := 1; depth <= 4; depth++ {
		for _, d := range []int{1, 3, 10, 33} {
			topo, err := topology.Balanced(depth, d)
			if err != nil {
				t.Fatal(err)
			}
			n := New(topo)
			want := make([]string, d)
			for i := range want {
				want[i] = fmt.Sprintf("<%d>", i)
			}
			leaf := func(l int) ([]byte, error) { return []byte(fmt.Sprintf("<%d>", l)), nil }
			outP, _, err := n.ReduceWith(ReduceOptions{}, leaf, concatFilter)
			if err != nil {
				t.Fatalf("depth=%d d=%d: %v", depth, d, err)
			}
			outS, _, err := n.ReduceWith(seqFold, leaf, concatFilter)
			if err != nil {
				t.Fatalf("depth=%d d=%d: %v", depth, d, err)
			}
			joined := strings.Join(want, "")
			if string(outP) != joined || string(outS) != joined {
				t.Errorf("depth=%d d=%d: parallel=%q seq=%q want=%q", depth, d, outP, outS, joined)
			}
		}
	}
}

// TestStatsLevelConsistency: level sums equal the per-node sums.
func TestStatsLevelConsistency(t *testing.T) {
	topo, _ := topology.Balanced(3, 27)
	n := New(topo)
	_, stats, err := n.ReduceWith(ReduceOptions{}, leafValue, sumFilter)
	if err != nil {
		t.Fatal(err)
	}
	perLevel := make([]int64, len(topo.Levels))
	var ids []int
	for id := range stats.NodeInBytes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, lvl := range topo.Levels {
		for _, node := range lvl {
			perLevel[node.Level] += stats.NodeInBytes[node.ID]
		}
	}
	for d, want := range perLevel {
		if stats.LevelInBytes[d] != want {
			t.Errorf("level %d: recorded %d, recomputed %d", d, stats.LevelInBytes[d], want)
		}
	}
}
