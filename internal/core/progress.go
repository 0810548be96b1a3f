package core

import (
	"fmt"

	"stat/internal/bitvec"
	"stat/internal/proto"
	"stat/internal/trace"
)

// ProgressReport is the outcome of a two-round progress check.
type ProgressReport struct {
	// Before and After are the 3D (trace×space×time) trees of the two
	// rounds, in MPI rank order.
	Before, After *trace.Tree
	// Stuck are the tasks that showed a single, identical call path
	// across every sample of both rounds. Tasks that are blocked but
	// whose progress engine still polls (e.g. a rank waiting in
	// MPI_Waitall) show varying leaf frames within a round and are
	// correctly excluded — only a genuinely wedged task has a frozen
	// stack.
	Stuck *bitvec.Vector
}

// ProgressCheck runs two sampling rounds through one protocol session and
// compares each task's call path across them. This is STAT's "is the
// application actually hung?" workflow: equivalence classes narrow the
// search space, and the progress check then separates wedged tasks from
// ones that are merely waiting.
func (t *Tool) ProgressCheck() (*ProgressReport, error) {
	s := t.newSession()
	if err := s.attach(); err != nil {
		return nil, err
	}
	round := func() (*trace.Tree, error) {
		if err := s.sample(t.opts.Samples, t.opts.ThreadsPerTask); err != nil {
			return nil, err
		}
		g, err := s.gather(proto.Tree3D, true, false)
		if err != nil {
			return nil, err
		}
		// The stuck-task comparison needs every task's paths in both
		// rounds; a degraded round would turn lost ranks into false
		// "stuck" negatives, so refuse rather than mislead.
		if g.live != nil {
			return nil, fmt.Errorf("core: progress check ran degraded: %d ranks missing from the gather",
				t.opts.Tasks-g.live.Count())
		}
		trees, err := t.merge.decodeResult(g.payload, nil)
		if err != nil {
			return nil, err
		}
		if len(trees) != 1 {
			return nil, fmt.Errorf("core: progress gather returned %d trees", len(trees))
		}
		return trees[0], nil
	}

	before, err := round()
	if err != nil {
		return nil, err
	}
	after, err := round()
	if err != nil {
		return nil, err
	}
	if err := s.detach(); err != nil {
		return nil, err
	}

	stuck := bitvec.New(t.opts.Tasks)
	for task := 0; task < t.opts.Tasks; task++ {
		pb := before.PathsTo(task)
		pa := after.PathsTo(task)
		if len(pb) != 1 || len(pa) != 1 {
			continue // the task's stack varied within a round: it is alive
		}
		if samePath(pb[0], pa[0]) {
			stuck.Set(task)
		}
	}
	return &ProgressReport{Before: before, After: after, Stuck: stuck}, nil
}

func samePath(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
