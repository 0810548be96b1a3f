package machine

import (
	"sort"
	"testing"
	"testing/quick"

	"stat/internal/sim"
)

func TestAtlasDaemonPlacement(t *testing.T) {
	m := Atlas()
	cases := []struct{ tasks, daemons int }{
		{8, 1}, {64, 8}, {4096, 512}, {9216, 1152}, {9, 2},
	}
	for _, c := range cases {
		d, err := m.DaemonsFor(c.tasks, CO)
		if err != nil {
			t.Errorf("DaemonsFor(%d): %v", c.tasks, err)
			continue
		}
		if d != c.daemons {
			t.Errorf("DaemonsFor(%d) = %d, want %d", c.tasks, d, c.daemons)
		}
	}
	if _, err := m.DaemonsFor(1152*8+1, CO); err == nil {
		t.Error("over-capacity job accepted")
	}
	if _, err := m.DaemonsFor(0, CO); err == nil {
		t.Error("empty job accepted")
	}
}

func TestBGLDaemonPlacement(t *testing.T) {
	m := BGL()
	// CO: 64 tasks per I/O-node daemon; VN: 128.
	if d, _ := m.DaemonsFor(106496, CO); d != 1664 {
		t.Errorf("full CO daemons = %d, want 1664 (the paper's I/O-node count)", d)
	}
	if d, _ := m.DaemonsFor(212992, VN); d != 1664 {
		t.Errorf("full VN daemons = %d, want 1664", d)
	}
	if d, _ := m.DaemonsFor(16384, CO); d != 256 {
		t.Errorf("16K CO daemons = %d, want 256 (Figure 5's failing flat tree)", d)
	}
	if _, err := m.DaemonsFor(106497, CO); err == nil {
		t.Error("CO beyond node count accepted")
	}
	if _, err := m.DaemonsFor(212992, CO); err == nil {
		t.Error("VN-sized job accepted in CO mode")
	}
	if _, err := m.DaemonsFor(212992, VN); err != nil {
		t.Errorf("full VN rejected: %v", err)
	}
}

func TestTaskMapCoversAllRanksOnce(t *testing.T) {
	m := Atlas()
	tm := m.TaskMap(100, 7)
	var all []int
	for _, ranks := range tm {
		all = append(all, ranks...)
	}
	sort.Ints(all)
	if len(all) != 100 {
		t.Fatalf("mapped %d ranks", len(all))
	}
	for i, r := range all {
		if r != i {
			t.Fatalf("rank %d missing or duplicated", i)
		}
	}
}

func TestTaskMapNotRankContiguous(t *testing.T) {
	// The premise of the remap step: daemons do not hold contiguous rank
	// blocks.
	m := BGL()
	tm := m.TaskMap(256, 4)
	if tm[0][1] == tm[0][0]+1 {
		t.Errorf("daemon 0 ranks contiguous: %v", tm[0][:4])
	}
}

// TestTaskMapOneBackingArray: the map costs two allocations whatever its
// size (the outer slice and one rank array), and the lists, though they
// share that array, are capped so an append to one never overwrites the
// next daemon's ranks.
func TestTaskMapOneBackingArray(t *testing.T) {
	m := BGL()
	if n := testing.AllocsPerRun(10, func() { m.TaskMap(4096, 64) }); n != 2 {
		t.Errorf("TaskMap(4096, 64) allocates %.0f times, want 2", n)
	}
	tm := m.TaskMap(12, 4)
	_ = append(tm[0], -1)
	if tm[1][0] != 1 {
		t.Errorf("append to daemon 0's ranks overwrote daemon 1's: %v", tm[1])
	}
	if tm := m.TaskMap(2, 4); tm[2] != nil || tm[3] != nil {
		t.Errorf("daemons without ranks got %v and %v, want nil", tm[2], tm[3])
	}
}

func TestQuickTaskMapPartition(t *testing.T) {
	m := Atlas()
	f := func(tasksSeed, daemonsSeed uint16) bool {
		tasks := 1 + int(tasksSeed)%2000
		daemons := 1 + int(daemonsSeed)%64
		tm := m.TaskMap(tasks, daemons)
		seen := make([]bool, tasks)
		count := 0
		for _, ranks := range tm {
			for i := 1; i < len(ranks); i++ {
				if ranks[i] <= ranks[i-1] {
					return false // local order must be ascending rank
				}
			}
			for _, r := range ranks {
				if r < 0 || r >= tasks || seen[r] {
					return false
				}
				seen[r] = true
				count++
			}
		}
		return count == tasks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	if CO.String() != "CO" || VN.String() != "VN" {
		t.Error("mode strings wrong")
	}
}

func TestMachineCharacteristics(t *testing.T) {
	a, b := Atlas(), BGL()
	// Atlas daemons contend with spinning MPI ranks; BG/L daemons own an
	// I/O node (Section VI-A).
	if a.CPUContention <= 1.0 {
		t.Error("Atlas daemons should model CPU contention")
	}
	if b.CPUContention != 1.0 {
		t.Error("BG/L daemons have dedicated I/O nodes")
	}
	// BG/L shows much larger run-to-run variation (paper: >20%).
	if b.JitterFrac < 0.20 {
		t.Errorf("BG/L jitter = %g, want >= 0.20", b.JitterFrac)
	}
	// Single static image on BG/L, dynamic binaries on Atlas.
	if !b.StaticBinary || len(b.Binaries) != 1 {
		t.Error("BG/L should expose one static image")
	}
	if a.StaticBinary || len(a.Binaries) < 3 {
		t.Error("Atlas should expose executable + shared libraries")
	}
	// Fan-in budgets: Atlas's flat 512-daemon merge worked; BG/L's flat
	// 256-daemon merge failed.
	if a.MaxFanIn < 512 {
		t.Errorf("Atlas MaxFanIn = %d", a.MaxFanIn)
	}
	if b.MaxFanIn >= 256 || b.MaxFanIn < 128 {
		t.Errorf("BG/L MaxFanIn = %d, want in [128,256)", b.MaxFanIn)
	}
}

func TestBuildFSMounts(t *testing.T) {
	for _, m := range []*Machine{Atlas(), BGL()} {
		e := sim.NewEngine()
		fs, nfs := m.BuildFS(e)
		if nfs == nil {
			t.Fatalf("%s: no NFS", m.Name)
		}
		for _, path := range []string{"/nfs/x", "/lustre/y", "/ramdisk/z"} {
			if _, err := fs.SystemFor(path); err != nil {
				t.Errorf("%s: %s unmounted: %v", m.Name, path, err)
			}
		}
		// Every declared binary lives on a resolvable mount.
		for _, b := range m.Binaries {
			if _, err := fs.SystemFor(b.Path); err != nil {
				t.Errorf("%s: binary %s unmounted: %v", m.Name, b.Path, err)
			}
		}
	}
}

func TestRemapCostMatchesPaper(t *testing.T) {
	// 0.66s at 208K tasks.
	b := BGL()
	got := b.RemapPerTaskSec * 212992
	if got < 0.5 || got > 0.9 {
		t.Errorf("modeled remap at 208K = %.2fs, want ≈0.66s", got)
	}
}
