package tbon

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"stat/internal/topology"
)

// The liveness filter mirrors the production (core) accounting exactly: a
// payload is the sorted list of leaf indexes its subtree delivered, marked
// "P:" when incomplete. Full (unmarked) inputs are attributed through the
// FilterCtx — the coverage of the child positions their span covers, minus
// the positions reported missing — so the tests exercise the span/seal
// contract the core filter depends on, not just payload plumbing.
func livenessFilter(t *testing.T) NodeFilter {
	return func(ctx *FilterCtx, children []*Lease) (*Lease, error) {
		set := map[int]bool{}
		anyPartial := false
		for i, c := range children {
			s := string(c.Bytes())
			if rest, ok := strings.CutPrefix(s, "P:"); ok {
				anyPartial = true
				for _, f := range strings.Split(rest, ",") {
					if f == "" {
						continue
					}
					v, err := strconv.Atoi(f)
					if err != nil {
						return nil, err
					}
					set[v] = true
				}
				continue
			}
			if ctx == nil || ctx.Node == nil {
				return nil, errors.New("test: full input without ctx")
			}
			from, to := i, i+1
			if ctx.Spans != nil {
				from, to = ctx.Spans[i].From, ctx.Spans[i].To
			}
			for pos := from; pos < to; pos++ {
				missing := false
				for _, m := range ctx.Missing {
					if m == pos {
						missing = true
					}
				}
				if missing {
					continue
				}
				for _, leaf := range ctx.Node.Children[pos].SubtreeLeaves(nil) {
					set[leaf.LeafIndex] = true
				}
			}
		}
		members := make([]int, 0, len(set))
		for m := range set {
			members = append(members, m)
		}
		sort.Ints(members)
		var b strings.Builder
		if anyPartial || ctx.Incomplete() {
			b.WriteString("P:")
		}
		for i, m := range members {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(m))
		}
		return NewLease([]byte(b.String()), nil), nil
	}
}

func leafIndexData(leaf int) (*Lease, error) {
	return NewLease([]byte(strconv.Itoa(leaf)), nil), nil
}

// wantLiveness renders the expected root payload: the surviving leaf
// indexes, "P:"-marked when any leaf of the topology is missing.
func wantLiveness(total int, lost ...int) string {
	isLost := map[int]bool{}
	for _, l := range lost {
		isLost[l] = true
	}
	var parts []string
	for i := 0; i < total; i++ {
		if !isLost[i] {
			parts = append(parts, strconv.Itoa(i))
		}
	}
	s := strings.Join(parts, ",")
	if len(lost) > 0 {
		s = "P:" + s
	}
	return s
}

// faultEngine is one engine configuration the fault scenarios run under:
// "seq" is one worker, the pairwise sequential fold; "pipelined" is the
// default pool; "concurrent" has as much in flight as the engine allows —
// eight workers under a budget no scenario's payloads reach, so no
// producer waits and every node folds its whole child row, tombstones
// included, in one call.
type faultEngine struct {
	name    string
	workers int
	budget  int64
}

var faultEngines = []faultEngine{
	{"seq", 1, 0},
	{"concurrent", 8, 1 << 30},
	{"pipelined", 0, 0},
}

// balanced29 builds the fixed scenario topology: Balanced(2, 9) has fanout
// 3 — root 0, interior nodes 1..3, leaves 4..12 (leaf i has ID 4+i), so
// interior node 1 parents leaves 0..2, node 2 leaves 3..5, node 3 leaves
// 6..8.
func balanced29(t *testing.T) *topology.Tree {
	t.Helper()
	topo, err := topology.Balanced(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Levels) != 3 || len(topo.Levels[1]) != 3 || topo.Leaves[0].ID != 4 {
		t.Fatalf("unexpected Balanced(2,9) shape: %d levels, leaf0 ID %d", len(topo.Levels), topo.Leaves[0].ID)
	}
	return topo
}

// runFaulty drives one partial-mode reduction and verifies the lease
// population returns to its baseline — the leak check guarding the
// stranded-lease sweeps on the engine's fault paths.
func runFaulty(t *testing.T, topo *topology.Tree, e faultEngine, plan *FaultPlan, timeout time.Duration) (string, error) {
	t.Helper()
	before := LiveLeases()
	n := New(topo)
	out, _, err := n.ReduceNodeLeasedWith(ReduceOptions{
		Workers: e.workers, BudgetBytes: e.budget, Partial: true, Faults: plan, SubtreeTimeout: timeout,
	}, leafIndexData, livenessFilter(t))
	if after := LiveLeases(); after != before {
		t.Errorf("%d leases live after reduction, %d before", after, before)
	}
	return string(out), err
}

func TestFaultCrashLeaf(t *testing.T) {
	topo := balanced29(t)
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			// Leaf 0 is ID 4; leaf 4 is ID 8.
			out, err := runFaulty(t, topo, e, &FaultPlan{Crash: map[int]bool{4: true, 8: true}}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantLiveness(9, 0, 4); out != want {
				t.Errorf("got %q, want %q", out, want)
			}
		})
	}
}

// TestFaultCrashTrailingLeaf pins the seal-call behavior: a child missing
// AFTER the last present one must still mark the output partial, or a
// trailing loss would silently masquerade as complete coverage.
func TestFaultCrashTrailingLeaf(t *testing.T) {
	topo := balanced29(t)
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			// Leaf 8 (ID 12) is the last child of the last interior node.
			out, err := runFaulty(t, topo, e, &FaultPlan{Crash: map[int]bool{12: true}}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantLiveness(9, 8); out != want {
				t.Errorf("got %q, want %q", out, want)
			}
		})
	}
}

// TestFaultCrashInterior: a crashed communication process's children are
// re-parented — they still fold on the dead node's behalf — so nothing is
// lost.
func TestFaultCrashInterior(t *testing.T) {
	topo := balanced29(t)
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			out, err := runFaulty(t, topo, e, &FaultPlan{Crash: map[int]bool{1: true}}, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantLiveness(9); out != want {
				t.Errorf("got %q, want %q", out, want)
			}
		})
	}
}

func TestFaultCutInterior(t *testing.T) {
	topo := balanced29(t)
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			// A partitioned node consumed its children's payloads before
			// its uplink failed — unlike a crash, nothing is recoverable.
			out, err := runFaulty(t, topo, e, &FaultPlan{CutLinks: map[int]bool{2: true}}, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantLiveness(9, 3, 4, 5); out != want {
				t.Errorf("got %q, want %q", out, want)
			}
		})
	}
}

func TestFaultWholeSubtreeCrash(t *testing.T) {
	topo := balanced29(t)
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			// All of interior node 1's leaves die: the node has nothing to
			// send and its silent death must propagate, not hang the root.
			out, err := runFaulty(t, topo, e,
				&FaultPlan{Crash: map[int]bool{4: true, 5: true, 6: true}}, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantLiveness(9, 0, 1, 2); out != want {
				t.Errorf("got %q, want %q", out, want)
			}
		})
	}
}

func TestFaultNothingSurvives(t *testing.T) {
	topo := balanced29(t)
	crash := map[int]bool{}
	for _, leaf := range topo.Leaves {
		crash[leaf.ID] = true
	}
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			_, err := runFaulty(t, topo, e, &FaultPlan{Crash: crash}, 200*time.Millisecond)
			if err == nil || !strings.Contains(err.Error(), "no surviving subtree") {
				t.Errorf("err = %v, want no-surviving-subtree", err)
			}
		})
	}
}

func TestFaultCrashRoot(t *testing.T) {
	topo := balanced29(t)
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			_, err := runFaulty(t, topo, e, &FaultPlan{Crash: map[int]bool{0: true}}, 0)
			if err == nil || !strings.Contains(err.Error(), "front end") {
				t.Errorf("err = %v, want front-end crash error", err)
			}
		})
	}
}

// TestFaultFatalWithoutPartial: without ReduceOptions.Partial every fault is
// an error — the all-or-nothing contract — and the failure still sweeps
// stranded leases.
func TestFaultFatalWithoutPartial(t *testing.T) {
	topo := balanced29(t)
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			before := LiveLeases()
			n := New(topo)
			_, _, err := n.ReduceNodeLeasedWith(ReduceOptions{
				Workers: e.workers, BudgetBytes: e.budget, Faults: &FaultPlan{Crash: map[int]bool{4: true}}, SubtreeTimeout: 200 * time.Millisecond,
			}, leafIndexData, livenessFilter(t))
			if err == nil {
				t.Fatal("crash without Partial mode succeeded")
			}
			if after := LiveLeases(); after != before {
				t.Errorf("%d leases live after failed reduction, %d before", after, before)
			}
		})
	}
}

// TestFaultSlowLinkWithinTimeout: a delay below the subtree timeout is just
// latency — the result stays complete.
func TestFaultSlowLinkWithinTimeout(t *testing.T) {
	topo := balanced29(t)
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			out, err := runFaulty(t, topo, e,
				&FaultPlan{SlowLinks: map[int]time.Duration{4: 5 * time.Millisecond}}, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantLiveness(9); out != want {
				t.Errorf("got %q, want %q", out, want)
			}
		})
	}
}

// TestFaultSlowLinkTimesOut: a delay beyond the subtree timeout drops the
// subtree.
func TestFaultSlowLinkTimesOut(t *testing.T) {
	topo := balanced29(t)
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			out, err := runFaulty(t, topo, e,
				&FaultPlan{SlowLinks: map[int]time.Duration{4: 500 * time.Millisecond}}, 30*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantLiveness(9, 0); out != want {
				t.Errorf("got %q, want %q", out, want)
			}
		})
	}
}

// TestFaultSlowInteriorWithinTimeout: a slow interior uplink (node 1,
// parent of leaves 0..2) below the subtree timeout only delays the
// subtree's payload — the result stays complete.
func TestFaultSlowInteriorWithinTimeout(t *testing.T) {
	topo := balanced29(t)
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			start := time.Now()
			out, err := runFaulty(t, topo, e,
				&FaultPlan{SlowLinks: map[int]time.Duration{1: 20 * time.Millisecond}}, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantLiveness(9); out != want {
				t.Errorf("got %q, want %q", out, want)
			}
			if took := time.Since(start); took < 20*time.Millisecond {
				t.Errorf("reduction took %v; the slow uplink was not delayed", took)
			}
		})
	}
}

// TestFaultSlowInteriorTimesOut: a slow interior uplink beyond the subtree
// timeout drops the whole subtree behind it, and its payload's lease is
// released (runFaulty checks the balance).
func TestFaultSlowInteriorTimesOut(t *testing.T) {
	topo := balanced29(t)
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			out, err := runFaulty(t, topo, e,
				&FaultPlan{SlowLinks: map[int]time.Duration{2: 500 * time.Millisecond}}, 30*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantLiveness(9, 3, 4, 5); out != want {
				t.Errorf("got %q, want %q", out, want)
			}
		})
	}
}

// TestFaultFreePartialIdentical: with Partial enabled but no fault plan, all
// engines produce byte-for-byte the output of the default mode — turning
// fault tolerance on costs nothing when nothing fails.
func TestFaultFreePartialIdentical(t *testing.T) {
	for _, build := range []func() (*topology.Tree, error){
		func() (*topology.Tree, error) { return topology.Flat(12) },
		func() (*topology.Tree, error) { return topology.Balanced(2, 9) },
		func() (*topology.Tree, error) { return topology.Balanced(3, 30) },
		func() (*topology.Tree, error) { return topology.BGL2Deep(16) },
	} {
		topo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range faultEngines {
			n := New(topo)
			base, _, err := n.ReduceNodeLeasedWith(ReduceOptions{Workers: e.workers, BudgetBytes: e.budget}, leafIndexData, livenessFilter(t))
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := New(topo).ReduceNodeLeasedWith(
				ReduceOptions{Workers: e.workers, BudgetBytes: e.budget, Partial: true, SubtreeTimeout: time.Second},
				leafIndexData, livenessFilter(t))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(base, got) {
				t.Errorf("%s/%d leaves: partial-mode output %q differs from default %q",
					e.name, topo.NumLeaves(), got, base)
			}
		}
	}
}

// TestFaultFilterErrorIsFatal: Partial mode tolerates faults, not bugs — a
// filter returning an error still fails the run, with no lease leaked.
func TestFaultFilterErrorIsFatal(t *testing.T) {
	topo := balanced29(t)
	boom := errors.New("boom")
	for _, e := range faultEngines {
		t.Run(e.name, func(t *testing.T) {
			before := LiveLeases()
			n := New(topo)
			_, _, err := n.ReduceNodeLeasedWith(ReduceOptions{Workers: e.workers, BudgetBytes: e.budget, Partial: true},
				leafIndexData,
				func(ctx *FilterCtx, children []*Lease) (*Lease, error) {
					if ctx.Node.ID == 2 {
						return nil, boom
					}
					return NewLease([]byte("x"), nil), nil
				})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the filter error", err)
			}
			if after := LiveLeases(); after != before {
				t.Errorf("%d leases live after failed reduction, %d before", after, before)
			}
		})
	}
}

// TestFaultManyShapes sweeps crash positions across shapes and engines,
// checking the liveness arithmetic and the lease balance everywhere.
func TestFaultManyShapes(t *testing.T) {
	shapes := []struct {
		name string
		topo func() (*topology.Tree, error)
	}{
		{"flat-8", func() (*topology.Tree, error) { return topology.Flat(8) }},
		{"balanced2-16", func() (*topology.Tree, error) { return topology.Balanced(2, 16) }},
		{"balanced3-27", func() (*topology.Tree, error) { return topology.Balanced(3, 27) }},
		{"bgl2-25", func() (*topology.Tree, error) { return topology.BGL2Deep(25) }},
	}
	for _, sh := range shapes {
		topo, err := sh.topo()
		if err != nil {
			t.Fatal(err)
		}
		d := topo.NumLeaves()
		for _, e := range faultEngines {
			for _, lost := range [][]int{{0}, {d - 1}, {0, d / 2, d - 1}} {
				crash := map[int]bool{}
				for _, l := range lost {
					crash[topo.Leaves[l].ID] = true
				}
				out, err := runFaulty(t, topo, e, &FaultPlan{Crash: crash}, 0)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", sh.name, e.name, lost, err)
				}
				if want := wantLiveness(d, lost...); out != want {
					t.Errorf("%s/%s/%v: got %q, want %q", sh.name, e.name, lost, out, want)
				}
			}
		}
	}
}

func TestFaultPlanNilSafe(t *testing.T) {
	var p *FaultPlan
	if p.crashed(1) || p.cut(1) || p.slow(1) != 0 {
		t.Error("nil plan reports faults")
	}
	_ = fmt.Sprint(p) // must not panic
}
