package main

import (
	"fmt"

	"stat/internal/core"
	"stat/internal/machine"
	"stat/internal/mpisim"
	"stat/internal/tbon"
	"stat/internal/topology"
)

// workload is one benchmark input shape. Every workload runs the default
// buggy ring application (rank 1 hung); the seed picks the application's
// stack variation, the tool's jitter stream and, on the quiescent monitor,
// which task keeps moving.
type workload struct {
	name string
	// tasks is the full-scale MPI task count; --scale-tasks overrides it.
	tasks int
	// rounds is the number of streamed rounds after the cold round; zero
	// makes a one-shot session.
	rounds int
	// options builds the session's options for a task count and seed.
	options func(tasks int, seed uint64) (core.Options, error)
}

func (w *workload) monitor() bool { return w.rounds > 0 }

// bglTasks is the paper's BG/L scale: 106,496 nodes in VN mode.
const bglTasks = 212992

var workloads = []*workload{
	{
		name:  "oneshot-1m",
		tasks: 1 << 20,
		options: func(tasks int, seed uint64) (core.Options, error) {
			return withApp(core.Options{
				Machine:           machine.BGLScaled(5),
				Mode:              machine.VN,
				BGLPatched:        true,
				Tasks:             tasks,
				Topology:          topology.Spec{Kind: topology.KindBalanced, Depth: 3},
				BitVec:            core.Hierarchical,
				Samples:           2,
				Engine:            tbon.EnginePipelined,
				ReduceBudgetBytes: 8 << 20,
				Seed:              seed,
			})
		},
	},
	{
		name:  "oneshot-208k-original",
		tasks: bglTasks,
		options: func(tasks int, seed uint64) (core.Options, error) {
			return withApp(core.Options{
				Machine:    machine.BGL(),
				Mode:       machine.VN,
				BGLPatched: true,
				Tasks:      tasks,
				Topology:   topology.Spec{Kind: topology.KindBGL2Deep},
				BitVec:     core.Original,
				Samples:    10,
				Seed:       seed,
			})
		},
	},
	{
		name:    "monitor-208k-drift",
		tasks:   bglTasks,
		rounds:  1,
		options: monitorOptions(false),
	},
	{
		name:    "monitor-208k-quiescent",
		tasks:   bglTasks,
		rounds:  6,
		options: monitorOptions(true),
	},
}

// monitorOptions is the 208K hierarchical streaming session; quiescent
// freezes every stack but one seed-chosen task's.
func monitorOptions(quiescent bool) func(int, uint64) (core.Options, error) {
	return func(tasks int, seed uint64) (core.Options, error) {
		opts := core.Options{
			Machine:    machine.BGL(),
			Mode:       machine.VN,
			BGLPatched: true,
			Tasks:      tasks,
			Topology:   topology.Spec{Kind: topology.KindBGL2Deep},
			BitVec:     core.Hierarchical,
			Samples:    10,
			Seed:       seed,
		}
		var extra []mpisim.Option
		if quiescent {
			// Ranks 1 and 2 are the hang and its blocked successor, so
			// the one task left moving is a barrier spinner.
			extra = append(extra, mpisim.WithActiveTask(3+int(seed%uint64(tasks-3))))
		}
		return withApp(opts, extra...)
	}
}

// withApp gives the session its application explicitly, built from the
// seed exactly as the tool would build its default ring, so the reference
// check reads its stacks from the same inputs the daemons sample.
func withApp(opts core.Options, extra ...mpisim.Option) (core.Options, error) {
	app, err := mpisim.NewRing(opts.Tasks, append([]mpisim.Option{mpisim.WithSeed(opts.Seed ^ 0xA99)}, extra...)...)
	if err != nil {
		return core.Options{}, err
	}
	opts.App = app
	return opts, nil
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sessionSeed maps the benchmark seed onto the tool's seed. The tool
// treats 0 as "use the default", so the mapping never yields it.
func sessionSeed(seed uint64) uint64 {
	if s := seed*0x9E3779B97F4A7C15 + 0x208e3; s != 0 {
		return s
	}
	return 0x208e3
}
