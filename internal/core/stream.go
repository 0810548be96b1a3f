package core

import (
	"errors"
	"fmt"
	"strings"

	"stat/internal/bitvec"
	"stat/internal/proto"
	"stat/internal/tbon"
	"stat/internal/trace"
)

// Streaming temporal mode. After the cold round a streaming session keeps
// the attach open and runs Options.Stream further sample→gather rounds,
// asking the daemons for delta frames: XOR trees against each daemon's
// previous sealed round, shipped through the unchanged overlay filters
// (MsgDelta) and folded into the front end's resident trees by
// trace.ApplyDelta. A stable application streams near-empty frames — the
// per-round ingress collapses to the handful of nodes that changed — and
// the fold is proportional to the change, not the tree.

// streamWantsDelta reports whether the session's gathers should invite
// delta frames: a streaming session below the whole-tree escape hatch.
func (t *Tool) streamWantsDelta() bool {
	return t.opts.Stream > 0 && !t.opts.StreamWholeTree
}

// isMixedDeltaRound matches errMixedDeltaRound after the reduction engine
// has wrapped it (filter errors cross goroutines as formatted strings, so
// errors.Is cannot see through them).
func isMixedDeltaRound(err error) bool {
	return err != nil && strings.Contains(err.Error(), "mixed delta/whole-tree")
}

// runStreamPhase runs the streamed rounds of a session whose cold round
// already populated res.Tree2D/Tree3D. Each round re-samples, gathers with
// delta invited (unless the session streams whole trees), and either folds
// the delta frames into the resident trees or replaces them with the
// round's whole trees. A mixed round — some daemons answered delta, some
// whole — re-gathers the round with delta off, which is deterministic
// because the daemons re-sample at an unchanged base epoch; the keyed
// walkers' delta chain survives the retry, so the next round deltas again.
func (t *Tool) runStreamPhase(res *Result, s *session) error {
	var remapper *bitvec.Remapper
	if t.opts.BitVec == Hierarchical {
		var err error
		if remapper, err = t.merge.rankRemapper(); err != nil {
			return err
		}
	}
	model := tbon.TimingModel{Link: t.mach.TreeLink, CPU: t.mach.MergeCPU, ConstSec: t.mach.MergeConstSec}
	sig, classes := classSignature(res.Tree2D)
	if hook := t.opts.StreamRound; hook != nil {
		// Round 0 is the cold gather the stream starts from; observers that
		// record the session (stat's -stream-save) need it to replay the
		// fold, so the hook sees it like any other whole-tree round.
		hook(0, false, res.Tree2D, res.Tree3D)
	}
	if hook := t.opts.StreamRoundTelemetry; hook != nil && res.Telemetry != nil {
		// Same round-0 convention for the telemetry follower: the cold
		// round's fleet frame opens the series.
		hook(0, res.Telemetry)
	}
	for round := 1; round <= t.opts.Stream; round++ {
		if err := s.sample(t.opts.Samples, t.opts.ThreadsPerTask); err != nil {
			return err
		}
		wantDelta := t.streamWantsDelta()
		g, err := s.gather(proto.TreeBoth, false, wantDelta)
		if wantDelta && isMixedDeltaRound(err) {
			res.StreamMixedRetries++
			g, err = s.gather(proto.TreeBoth, false, false)
		}
		if err != nil {
			return fmt.Errorf("core: stream round %d: %w", round, err)
		}
		if g.live != nil {
			return fmt.Errorf("core: stream round %d returned a partial result", round)
		}
		res.StreamRounds++
		res.Times.Stream += model.ReduceTime(t.topo, g.stats, nil)
		ingress := g.stats.NodeInBytes[t.topo.Root.ID]
		if g.delta {
			res.StreamDeltaRounds++
			res.StreamDeltaBytes += ingress
			if err := t.foldStreamDelta(res, g.payload, remapper); err != nil {
				return fmt.Errorf("core: stream round %d: %w", round, err)
			}
		} else {
			res.StreamWholeBytes += ingress
			trees, err := decodeTrees(nil, g.payload, trace.DecodeOpts{Remap: remapper})
			if err != nil {
				return fmt.Errorf("core: stream round %d: %w", round, err)
			}
			if len(trees) != 2 {
				releaseDecoded(trees, 0, nil)
				return fmt.Errorf("core: stream round %d returned %d trees, want 2", round, len(trees))
			}
			res.Tree2D.Release()
			res.Tree3D.Release()
			res.Tree2D, res.Tree3D = trees[0], trees[1]
		}
		nsig, nclasses := classSignature(res.Tree2D)
		if nsig != sig {
			res.StreamEvents = append(res.StreamEvents, StreamEvent{
				Round:       round,
				Classes:     nclasses,
				PrevClasses: classes,
			})
		}
		sig, classes = nsig, nclasses
		if hook := t.opts.StreamRound; hook != nil {
			hook(round, g.delta, res.Tree2D, res.Tree3D)
		}
		if hook := t.opts.StreamRoundTelemetry; hook != nil && s.lastFrameOK {
			// s.lastFrame is overwritten by the next gather, so the hook
			// must copy anything it keeps — same contract as StreamRound's
			// tree arguments.
			hook(round, &s.lastFrame)
		}
	}
	return nil
}

// foldStreamDelta decodes one round's MsgDelta payload (2D then 3D frame)
// and folds both into the resident trees. The resident trees own dense
// mutable labels in both modes — the hierarchical final decode remaps into
// owned dense storage, and original mode's wire tops out at v2, whose
// decode is dense — which is exactly what ApplyDelta's in-place XOR needs.
func (t *Tool) foldStreamDelta(res *Result, payload []byte, remapper *bitvec.Remapper) error {
	frames, err := decodeTrees(nil, payload, trace.DecodeOpts{Remap: remapper, Delta: true})
	if err != nil {
		return err
	}
	if len(frames) != 2 {
		releaseDecoded(frames, 0, nil)
		return fmt.Errorf("core: delta gather returned %d frames, want 2", len(frames))
	}
	res.StreamDeltaNodes += int64(countTreeNodes(frames[0].Root) + countTreeNodes(frames[1].Root))
	err = trace.ApplyDelta(res.Tree2D, frames[0])
	if err == nil {
		err = trace.ApplyDelta(res.Tree3D, frames[1])
	}
	frames[0].Release()
	frames[1].Release()
	if err != nil {
		return err
	}
	if res.Tree2D == nil || res.Tree3D == nil {
		return errors.New("core: resident tree lost during fold")
	}
	return nil
}

func countTreeNodes(n *trace.Node) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += countTreeNodes(c)
	}
	return total
}

// classSignature hashes a tree's equivalence-class structure — count,
// paths, and membership — so the stream loop can flag the rounds where the
// classes change (the hang-onset signal), including membership shifts that
// keep the count constant. FNV-1a over a canonical serialization; the
// classes come out of EquivalenceClasses already canonically ordered.
func classSignature(t *trace.Tree) (uint64, int) {
	classes := t.EquivalenceClasses()
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		h ^= x
		h *= prime64
	}
	for _, c := range classes {
		for _, f := range c.Path {
			for i := 0; i < len(f); i++ {
				mix(uint64(f[i]))
			}
			mix('\x00')
		}
		mix('\x01')
		for _, task := range c.Tasks {
			mix(uint64(task) + 1)
		}
		mix('\x02')
	}
	return h, len(classes)
}
