package core

import (
	"fmt"

	"stat/internal/launch"
	"stat/internal/rm"
)

// runLaunchPhase models starting the tool's processes (Section IV).
//
// On BG/L the control system launches the application under the tool plus
// the I/O-node daemons (users cannot log into I/O nodes), and the MRNet
// facility still rsh-launches the communication processes across the login
// nodes. On Atlas the configured launcher starts daemons and communication
// processes alike.
func (t *Tool) runLaunchPhase() (float64, error) {
	start := t.eng.Now()
	var lerr error
	doneAt := start

	if t.mach.StaticBinary { // BG/L-style machine
		ctl := rm.NewBGLControl(t.opts.BGLPatched)
		ctl.LaunchJob(t.eng, t.opts.Tasks, t.daemons, func(at float64, err error) {
			doneAt, lerr = at, err
		})
		t.eng.Run()
		if lerr != nil {
			return doneAt - start, lerr
		}
		// Communication processes: sequential remote-shell spawns onto the
		// login nodes, then tree connection setup.
		cps := t.topo.CommProcesses()
		if cps > 0 {
			rsh := launch.DefaultRSH()
			var r launch.Result
			rsh.Launch(t.eng, cps, func(at float64, res launch.Result) {
				doneAt, r = at, res
			})
			t.eng.Run()
			if r.Err != nil {
				return doneAt - start, r.Err
			}
		}
		return doneAt - start, nil
	}

	procs := t.daemons + t.topo.CommProcesses()
	var r launch.Result
	t.opts.Launcher.Launch(t.eng, procs, func(at float64, res launch.Result) {
		doneAt, r = at, res
	})
	t.eng.Run()
	return doneAt - start, r.Err
}

// runSamplePhase models the wall-clock of every daemon gathering its
// samples: sequentially opening and parsing the binaries it needs symbols
// from (contending on shared file systems unless SBRS redirected the
// opens), then the per-task stack walks. The phase time is the slowest
// daemon's completion (Section VI measures exactly this quantity).
//
// This phase models the session's FIRST (cold) gather round only: symbol
// parsing happens once, machine.WalkSec charges the first walk per task
// the cold price and the rest of the round the warm price, and the result
// lands in PhaseTimes.Sample, charged in full on the critical path.
// Steady-state rounds are modeled separately (steadyWalkSec →
// PhaseTimes.SampleSteady), and they too sit on the critical path: every
// round walks before it reduces (PhaseTimes.SteadyRound).
//
// Only the clock is modeled here. The real sampling work — the walks that
// produce the trees the merge phase reduces — runs at gather time in
// daemon.sampleTrees, and is no longer the sequential per-sample
// walk→resolve→merge loop this comment once described: it goes through
// the batched direct-to-tree engine (internal/sample), where raw
// PC stacks accumulate in a per-walker trie, symbols resolve through a
// shared memoized cache, and concurrency is bounded by the engine's
// walk slots (Options.SampleWorkers) rather than being strictly
// sequential per daemon.
//
// A binary that cannot be stat'ed or read aborts the phase with an error —
// daemons cannot sample without symbols — which Run surfaces to the caller;
// a malformed session degrades instead of crashing the process. The first
// failure wins and the remaining chains stop scheduling work.
func (t *Tool) runSamplePhase() (float64, error) {
	start := t.eng.Now()
	end := start
	var phaseErr error

	for d := 0; d < t.daemons; d++ {
		d := d
		r := t.rng.Derive(uint64(d), 0xD43)
		walk := float64(len(t.merge.taskMap[d])) * float64(t.opts.ThreadsPerTask) *
			t.mach.WalkSec(t.opts.Samples) *
			t.mach.CPUContention * r.Jitter(t.mach.JitterFrac)
		if r.Float64() < t.mach.TailProb {
			walk *= t.mach.TailFactor
		}

		// Chain: open binary 0 → parse → open binary 1 → … → walk.
		var step func(i int)
		step = func(i int) {
			if phaseErr != nil {
				return
			}
			if i >= len(t.mach.Binaries) {
				t.eng.After(walk, func() {
					if t.eng.Now() > end {
						end = t.eng.Now()
					}
				})
				return
			}
			path := t.mach.Binaries[i].Path
			size, err := t.fs.Size(path)
			if err != nil {
				phaseErr = fmt.Errorf("core: sample phase: daemon %d stat %s: %w", d, path, err)
				return
			}
			t.fs.ReadFile(d, path, func(_ float64, _ []byte, err error) {
				if err != nil {
					if phaseErr == nil {
						phaseErr = fmt.Errorf("core: sample phase: daemon %d read %s: %w", d, path, err)
					}
					return
				}
				parse := float64(size) * t.mach.ParsePerByteSec * t.mach.CPUContention
				t.eng.After(parse, func() { step(i + 1) })
			})
		}
		step(0)
	}
	t.eng.Run()
	if phaseErr != nil {
		return 0, phaseErr
	}
	return end - start, nil
}

// steadyWalkSec models one steady-state gather round's walk time: the
// slowest daemon's all-warm resample of its task set. No symbol I/O (the
// caches are hot), no cold first walk, and no jitter tail — the steady
// model is the repeatable per-round cost, not a worst-case draw. Feeds
// PhaseTimes.SampleSteady.
func (t *Tool) steadyWalkSec() float64 {
	var worst float64
	for d := 0; d < t.daemons; d++ {
		walk := float64(len(t.merge.taskMap[d])) * float64(t.opts.ThreadsPerTask) *
			t.mach.WalkSecSteady(t.opts.Samples) * t.mach.CPUContention
		if walk > worst {
			worst = walk
		}
	}
	return worst
}
