package statbench

import (
	"fmt"

	"stat/internal/emul"
	"stat/internal/machine"
	"stat/internal/tbon"
	"stat/internal/topology"
)

// Ablation experiments: not figures from the paper, but sweeps over the
// tool's design choices (label representation, overlay depth, reduction
// engine), run through the STATBench-style emulator so tree shape is
// controlled independently of the ring app. The emulator only generates
// the daemons' trees; the merge is the tool's own (core.MergeTrees).

func bglModel() tbon.TimingModel {
	m := machine.BGL()
	return tbon.TimingModel{Link: m.TreeLink, CPU: m.MergeCPU, ConstSec: m.MergeConstSec}
}

// AblationClasses sweeps the number of process equivalence classes at a
// fixed scale: more distinct behaviours mean bigger prefix trees and
// bigger payloads. Real bugs cluster (few classes); the sweep shows the
// tool degrades gracefully toward noise.
func AblationClasses(c Config) (*Figure, error) {
	fig := &Figure{
		ID:     "AblA",
		Title:  "Merge cost versus equivalence-class count (emulated, 16K tasks, 256 daemons)",
		XLabel: "classes", YLabel: "seconds",
	}
	for _, hier := range []bool{false, true} {
		name := "original"
		if hier {
			name = "hierarchical"
		}
		s := Series{Name: name}
		for _, classes := range []int{1, 4, 16, 64, 256, 1024} {
			spec := emul.Spec{Tasks: 16384, Depth: 8, Branch: 4, EqClasses: classes, Seed: c.Seed}
			res, err := emul.Run(spec, 256, topology.Spec{Kind: topology.KindBGL2Deep}, hier, bglModel())
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: classes, Seconds: res.ModeledSec})
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, "classes multiply tree nodes; hierarchical labels keep each node cheap")
	return fig, nil
}

// AblationDepth sweeps call-path depth: deeper stacks mean taller prefix
// trees (more nodes, each with a label).
func AblationDepth(c Config) (*Figure, error) {
	fig := &Figure{
		ID:     "AblB",
		Title:  "Merge cost versus call-path depth (emulated, 16K tasks, 256 daemons)",
		XLabel: "depth", YLabel: "seconds",
	}
	for _, hier := range []bool{false, true} {
		name := "original"
		if hier {
			name = "hierarchical"
		}
		s := Series{Name: name}
		for _, depth := range []int{2, 4, 8, 16, 32, 64} {
			spec := emul.Spec{Tasks: 16384, Depth: depth, Branch: 3, EqClasses: 32, Seed: c.Seed}
			res, err := emul.Run(spec, 256, topology.Spec{Kind: topology.KindBGL2Deep}, hier, bglModel())
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: depth, Seconds: res.ModeledSec})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationFanout sweeps balanced-tree depth at a fixed daemon count —
// the topology choice of Figures 4/5 isolated from machine effects.
func AblationFanout(c Config) (*Figure, error) {
	fig := &Figure{
		ID:     "AblC",
		Title:  "Merge cost versus tree depth (emulated, 16K tasks, 512 daemons)",
		XLabel: "tree depth", YLabel: "seconds",
	}
	s := Series{Name: "original bit vectors"}
	for depth := 1; depth <= 4; depth++ {
		spec := emul.Spec{Tasks: 16384, Depth: 8, Branch: 4, EqClasses: 32, Seed: c.Seed}
		res, err := emul.Run(spec, 512, topology.Spec{Kind: topology.KindBalanced, Depth: depth}, false, bglModel())
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{X: depth, Seconds: res.ModeledSec})
		fig.Notes = append(fig.Notes, fmt.Sprintf("depth %d: front end ingress %d bytes", depth, res.FrontEndInBytes))
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// AblationEngines compares reduction-engine configurations on identical
// emulated workloads. The modeled time is configuration-independent (same
// traffic, same machine model); what the sweep exposes is the real
// wall-clock of the in-process reduction (emul.Result.MeasuredSec) —
// core's gather, with its result filter and fused root decode, under the
// one-worker pairwise fold against the worker pool's subtree concurrency
// — plus the memory knob: the byte-budget series trades peak in-flight
// bytes for fold width, since comm processes defer their folds to take
// all children in one call only while the budget has room.
func AblationEngines(c Config) (*Figure, error) {
	fig := &Figure{
		ID:     "AblD",
		Title:  "Reduction-engine wall clock versus daemon count (emulated, 8K tasks, hierarchical)",
		XLabel: "daemons", YLabel: "seconds",
	}
	engines := []struct {
		name string
		opts tbon.ReduceOptions
	}{
		{"sequential fold (1 worker) measured", tbon.ReduceOptions{Workers: 1}},
		{"pipelined measured", tbon.ReduceOptions{}},
		{"pipelined 256KiB budget", tbon.ReduceOptions{BudgetBytes: 256 << 10}},
	}
	scales := []int{32, 64, 128, 256}
	if c.Quick {
		scales = []int{32, 128}
	}
	var modeled Series
	modeled.Name = "modeled (any engine)"
	for ei, eng := range engines {
		s := Series{Name: eng.name}
		for _, daemons := range scales {
			spec := emul.Spec{Tasks: 8192, Depth: 8, Branch: 4, EqClasses: 64, Seed: c.Seed}
			res, err := emul.RunEngine(spec, daemons, topology.Spec{Kind: topology.KindBGL2Deep}, true, bglModel(), eng.opts)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: daemons, Seconds: res.MeasuredSec})
			if ei == 0 {
				modeled.Points = append(modeled.Points, Point{X: daemons, Seconds: res.ModeledSec})
			}
			if eng.opts.BudgetBytes > 0 && res.Stats.PeakInFlightBytes > 0 {
				fig.Notes = append(fig.Notes, fmt.Sprintf(
					"%s @ %d daemons: peak in-flight %d bytes (budget %d)",
					eng.name, daemons, res.Stats.PeakInFlightBytes, eng.opts.BudgetBytes))
			}
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Series = append(fig.Series, modeled)
	fig.Notes = append(fig.Notes,
		"modeled time is configuration-independent: every configuration moves the same bytes over the same edges")
	return fig, nil
}

// Ablations runs all ablation sweeps.
func Ablations(c Config) ([]*Figure, error) {
	var out []*Figure
	for _, gen := range []func(Config) (*Figure, error){AblationClasses, AblationDepth, AblationFanout, AblationEngines} {
		f, err := gen(c)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
