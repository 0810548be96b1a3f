// Package machine describes the two evaluation platforms of the paper and
// how STAT maps onto them: Atlas, a 1,152-node 8-core Infiniband Linux
// cluster where one daemon per compute node samples 8 MPI tasks and
// binaries live on NFS; and BG/L, 106,496 dual-core compute nodes where
// daemons must run on dedicated I/O nodes (one per 64 compute nodes,
// 1,664 total) and the application is a single statically-linked image.
package machine

import (
	"fmt"

	"stat/internal/fsim"
	"stat/internal/sim"
)

// Mode selects BG/L's execution mode: co-processor (one MPI task per
// compute node, the second core offloads communication) or virtual node
// (one task per core). Atlas ignores the mode.
type Mode int

const (
	// CO is co-processor mode (64 tasks per I/O-node daemon on BG/L).
	CO Mode = iota
	// VN is virtual-node mode (128 tasks per daemon on BG/L).
	VN
)

func (m Mode) String() string {
	if m == VN {
		return "VN"
	}
	return "CO"
}

// BinaryFile describes one file the stack walker needs symbols from.
type BinaryFile struct {
	Path string
	// Module is the stackwalk module name ("a.out", "libmpi.so", ...).
	Module string
}

// Machine is one evaluation platform.
type Machine struct {
	Name string
	// TotalNodes is the compute-node count.
	TotalNodes int
	// CoresPerNode is the compute cores per node.
	CoresPerNode int
	// TasksPerDaemon maps mode → application tasks each daemon serves.
	TasksPerDaemon func(Mode) int
	// MaxTasks is the largest runnable job (tasks) per mode.
	MaxTasks func(Mode) int

	// TreeLink models one edge of the analysis tree (daemon↔comm process↔
	// front end).
	TreeLink sim.Link
	// MergeCPU is the per-node filter cost for the merge timing model.
	MergeCPU sim.CPUCost
	// MergeConstSec is the fixed per-merge overhead (stream setup, front
	// end dispatch and result handling).
	MergeConstSec float64

	// WalkColdPerTaskSec is the cost of one task's first stack walk of a
	// gather round, once symbols are resolved (no file I/O): resolver
	// caches cold, every frame pays a lookup and the trie grows its path.
	WalkColdPerTaskSec float64
	// WalkWarmPerTaskSec is the cost of each subsequent walk of the same
	// round under the direct-to-tree engine: a spinning task's frames
	// fall in PC ranges the trie already holds, so the walk descends by
	// range checks without resolving and just ticks bits. The cold/warm split is what
	// makes modeled Figure 8/9 curves reflect the batched engine instead
	// of charging every sample the first-walk price.
	WalkWarmPerTaskSec float64
	// ParsePerByteSec is the CPU cost of symbol-table parsing per byte.
	ParsePerByteSec float64
	// CPUContention: on Atlas the daemon timeshares a core with MPI tasks
	// that spin-wait; a fully loaded node slows the daemon down. BG/L
	// daemons own a dedicated I/O node.
	CPUContention float64 // multiplier ≥ 1 applied to daemon CPU work
	// JitterFrac is run-to-run performance variation (paper: >20% on BG/L).
	JitterFrac float64
	// TailProb/TailFactor model rare severe OS interference on a daemon
	// (one straggler dominates a phase's makespan — the source of the 2×
	// gap between the two identical VN runs in Figure 9).
	TailProb   float64
	TailFactor float64
	// RemapPerTaskSec is the front end's cost per task to rearrange
	// hierarchical bit vectors into MPI rank order (0.66 s at 208K tasks
	// in the paper).
	RemapPerTaskSec float64
	// MaxFanIn is the largest child count one tool process can sustain
	// (per-connection buffers on the memory-constrained login nodes); the
	// flat topology's merge fails on BG/L when the front end exceeds it
	// (Figure 5, 256 daemons at 16,384 compute nodes).
	MaxFanIn int

	// Binaries lists the files the stack walker must parse, in open order.
	Binaries []BinaryFile
	// StaticBinary is true when all symbols live in one image (BG/L).
	StaticBinary bool
	// FS parameterizes the machine's file systems.
	FS FSConfig
}

// FSConfig holds the file-system model parameters; experiment variants
// (the Figure 10 "updated OS" image) adjust these rather than rebuilding
// mounts by hand.
type FSConfig struct {
	NFSThreads     int
	NFSSeekSec     float64
	NFSBytesPerSec float64
	NFSThrashCoef  float64

	LustreMDSThreads  int
	LustreOSTs        int
	LustreMDSSeekSec  float64
	LustreBytesPerSec float64

	RAMSeekSec     float64
	RAMBytesPerSec float64
}

// DaemonsFor reports the daemon count serving a job of `tasks` tasks.
func (m *Machine) DaemonsFor(tasks int, mode Mode) (int, error) {
	per := m.TasksPerDaemon(mode)
	if tasks < 1 {
		return 0, fmt.Errorf("machine: need at least 1 task, got %d", tasks)
	}
	if max := m.MaxTasks(mode); tasks > max {
		return 0, fmt.Errorf("machine: %d tasks exceeds %s capacity %d (%s mode)", tasks, m.Name, max, mode)
	}
	d := (tasks + per - 1) / per
	return d, nil
}

// TaskMap assigns global ranks to daemons. The paper notes the node→daemon
// mapping is not guaranteed to follow MPI rank order, which is exactly why
// the hierarchical bit vectors need a final remap. We model that with a
// deterministic interleaving: daemon d serves ranks d, d+D, d+2D, … —
// contiguous on neither side, like a real round-robin block map.
// The returned slice lists, for each daemon, its ranks in local order.
// All daemons' lists share one backing array of `tasks` entries, each a
// full slice expression, so an append to one list copies instead of
// overwriting its neighbour; a daemon serving no rank gets nil.
func (m *Machine) TaskMap(tasks, daemons int) [][]int {
	out := make([][]int, daemons)
	ranks := make([]int, 0, max(tasks, 0))
	for d := 0; d < daemons && d < tasks; d++ {
		lo := len(ranks)
		for r := d; r < tasks; r += daemons {
			ranks = append(ranks, r)
		}
		out[d] = ranks[lo:len(ranks):len(ranks)]
	}
	return out
}

// WalkSec is the modeled per-task, per-thread stack-walk time of the
// FIRST gather round of the given sample count: the first walk pays the
// cold price (resolution, trie growth), every repeat descends the warm
// trie at the warm price. This is the cold-round term of the cold/warm
// split (PhaseTimes.Sample); WalkSecSteady prices the rounds after it.
func (m *Machine) WalkSec(samples int) float64 {
	if samples < 1 {
		return 0
	}
	return m.WalkColdPerTaskSec + float64(samples-1)*m.WalkWarmPerTaskSec
}

// WalkSecSteady is the modeled per-task, per-thread walk time of a
// steady-state gather round: the trie, its spans, and the resolver cache
// already hold the round's whole working set, so every sample — the first
// included — walks at the warm price (PhaseTimes.SampleSteady). Each
// such round walks before it reduces, so the whole walk is on the round's
// critical path (PhaseTimes.SteadyRound).
func (m *Machine) WalkSecSteady(samples int) float64 {
	if samples < 1 {
		return 0
	}
	return float64(samples) * m.WalkWarmPerTaskSec
}

// Atlas returns the Atlas model: 1,152 nodes × 8 cores, DDR Infiniband,
// NFS-mounted home directories plus a Lustre scratch mount and per-node
// RAM disk, dynamically linked binaries, contended daemon CPU.
func Atlas() *Machine {
	return &Machine{
		Name:           "Atlas",
		TotalNodes:     1152,
		CoresPerNode:   8,
		TasksPerDaemon: func(Mode) int { return 8 },
		MaxTasks:       func(Mode) int { return 1152 * 8 },
		TreeLink:       sim.Link{LatencySec: 12e-6, BytesPerSec: 1.2e9}, // DDR IB
		MergeCPU:       sim.CPUCost{PerMessageSec: 180e-6, PerByteSec: 1.6e-8},
		MergeConstSec:  0.001,
		// Paper-calibrated first walk; warm walks through the spanned trie
		// cost roughly 3.4x less (spinning ranks stay on known call paths).
		WalkColdPerTaskSec: 0.011,
		WalkWarmPerTaskSec: 0.0032,
		ParsePerByteSec:    5.2e-9,
		CPUContention:      2.0, // spinning MPI ranks steal the daemon's core
		JitterFrac:         0.08,
		TailProb:           0.0001,
		TailFactor:         1.6,
		RemapPerTaskSec:    2.0e-6,
		MaxFanIn:           1024,
		Binaries: []BinaryFile{
			{Path: "/nfs/home/user/a.out", Module: "a.out"},
			{Path: "/nfs/home/user/libmpi.so", Module: "libmpi.so"},
			{Path: "/nfs/home/user/libc.so", Module: "libc.so"},
		},
		// Original OS image: an overloaded departmental filer serves every
		// binary, including the dependent shared libraries.
		FS: FSConfig{
			NFSThreads: 3, NFSSeekSec: 0.018, NFSBytesPerSec: 60e6, NFSThrashCoef: 0.004,
			LustreMDSThreads: 8, LustreOSTs: 16, LustreMDSSeekSec: 0.015, LustreBytesPerSec: 350e6,
			RAMSeekSec: 0.0002, RAMBytesPerSec: 2.5e9,
		},
	}
}

// BGL returns the BG/L model: 106,496 compute nodes, one I/O-node daemon
// per 64 compute nodes (1,664 at full scale), CO/VN modes, a single
// statically-linked application image, slower cores (700 MHz PPC440 on
// compute, tool processes on I/O nodes and 14 login nodes).
func BGL() *Machine {
	return &Machine{
		Name:         "BG/L",
		TotalNodes:   106496,
		CoresPerNode: 2,
		TasksPerDaemon: func(m Mode) int {
			if m == VN {
				return 128
			}
			return 64
		},
		MaxTasks: func(m Mode) int {
			if m == VN {
				return 106496 * 2
			}
			return 106496
		},
		TreeLink:      sim.Link{LatencySec: 45e-6, BytesPerSec: 2.4e8}, // functional Ethernet to login nodes
		MergeCPU:      sim.CPUCost{PerMessageSec: 1e-4, PerByteSec: 2e-8},
		MergeConstSec: 0.05,
		// Slower PPC440 first walk; the warm-walk payoff is similar in ratio.
		WalkColdPerTaskSec: 0.016,
		WalkWarmPerTaskSec: 0.0046,
		ParsePerByteSec:    9.5e-9,
		CPUContention:      1.0, // dedicated I/O node
		JitterFrac:         0.25,
		TailProb:           0.0004,
		TailFactor:         2.8,
		RemapPerTaskSec:    3.1e-6,
		MaxFanIn:           192,
		Binaries: []BinaryFile{
			{Path: "/nfs/home/user/a.out-static", Module: "static"},
		},
		StaticBinary: true,
		FS: FSConfig{
			NFSThreads: 24, NFSSeekSec: 0.012, NFSBytesPerSec: 320e6, NFSThrashCoef: 0.0005,
			LustreMDSThreads: 8, LustreOSTs: 16, LustreMDSSeekSec: 0.015, LustreBytesPerSec: 350e6,
			RAMSeekSec: 0.0002, RAMBytesPerSec: 1.2e9,
		},
	}
}

// BGLScaled returns the BG/L model grown by an integer node-count factor
// beyond the installed 106,496-node system — the "millions of cores"
// extrapolation the paper's title aims at. Everything else (per-node
// rates, fan-in limits, file systems) keeps the measured BG/L values, so
// a scaled run answers "what if the same machine were bigger", not "what
// would a faster machine do". Scale 5 in VN mode admits the million-task
// sessions the v3 wire format exists for.
func BGLScaled(scale int) *Machine {
	m := BGL()
	if scale <= 1 {
		return m
	}
	m.Name = fmt.Sprintf("BG/L x%d", scale)
	m.TotalNodes *= scale
	total := m.TotalNodes
	m.MaxTasks = func(mode Mode) int {
		if mode == VN {
			return total * 2
		}
		return total
	}
	return m
}

// BuildFS builds the machine's mount table on the given engine from its
// FSConfig: a contended NFS server (home directories), a Lustre scratch
// system, and a node-local RAM disk (the SBRS staging target). Returns the
// namespace and the NFS system (tests observe its utilization).
func (m *Machine) BuildFS(e *sim.Engine) (*fsim.FS, *fsim.NFS) {
	c := m.FS
	fs := fsim.NewFS()
	nfs := fsim.NewNFS(e, c.NFSThreads, c.NFSSeekSec, c.NFSBytesPerSec)
	nfs.ThrashCoef = c.NFSThrashCoef // drives Fig. 8's worse-than-linear shape
	lst := fsim.NewLustre(e, c.LustreMDSThreads, c.LustreOSTs, c.LustreMDSSeekSec, c.LustreBytesPerSec)
	ram := fsim.NewRAMDisk(e, c.RAMSeekSec, c.RAMBytesPerSec)
	fs.AddMount("/nfs/", nfs)
	fs.AddMount("/lustre/", lst)
	fs.AddMount("/ramdisk/", ram)
	return fs, nfs
}
