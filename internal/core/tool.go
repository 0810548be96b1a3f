package core

import (
	"fmt"

	"stat/internal/bitvec"
	"stat/internal/fsim"
	"stat/internal/machine"
	"stat/internal/mpisim"
	"stat/internal/sample"
	"stat/internal/sbrs"
	"stat/internal/sim"
	"stat/internal/stackwalk"
	"stat/internal/tbon"
	"stat/internal/telemetry"
	"stat/internal/topology"
	"stat/internal/trace"
)

// Tool is one configured STAT instance (front end + daemons + analysis).
type Tool struct {
	opts    Options
	mach    *machine.Machine
	eng     *sim.Engine
	daemons int
	topo    *topology.Tree
	fs      *fsim.FS
	app     *mpisim.App
	symtab  *stackwalk.SymbolTable
	rng     *sim.RNG
	// sampler is the batched direct-to-tree sampling engine shared by
	// every daemon of this tool.
	sampler *sample.Engine
	// merge is the gather's merge state: representation, task layout
	// (merge.taskMap: per daemon, global ranks in local order), coverage
	// cache and decode counters.
	merge *merger
	// telem is the observability plane (registry, per-daemon flight
	// recorders, reduce-wait aggregation); nil unless Options.Telemetry.
	telem *toolTelemetry
}

// Result reports one run.
type Result struct {
	Tasks   int
	Daemons int
	Topo    *topology.Tree

	// Tree2D is the trace×space tree (last sample); Tree3D is the
	// trace×space×time tree (all samples). Both are in MPI rank order.
	Tree2D *trace.Tree
	Tree3D *trace.Tree
	// Classes are the process equivalence classes from the 2D tree.
	Classes []trace.Class

	Times PhaseTimes
	// LaunchErr and MergeErr record environment failures (rsh session
	// exhaustion, control-system hang, front-end fan-in exhaustion); the
	// corresponding later phases are skipped.
	LaunchErr error
	MergeErr  error

	// MergeStats are the TBON traffic counters of the merge phase.
	MergeStats *tbon.Stats
	// WireVersion is the data-stream wire version the session negotiated
	// at attach (2 = 8-aligned STR2 trees, 3 = 8-aligned STR3 trees with
	// adaptive compressed labels).
	WireVersion uint8
	// AliasDecodeHits / AliasDecodeMisses count the labels the merge
	// phase's zero-copy decode aliased in place versus copied because the
	// wire offset failed the word-alignment check. On a v2 stream the
	// miss count is zero by construction. Every interior node decodes
	// each child payload exactly once, into its live accumulator, so the
	// totals do not depend on the reduction's worker count or budget.
	AliasDecodeHits   int64
	AliasDecodeMisses int64
	// LabelStats counts the labels the merge phase decoded from v3 (STR3)
	// streams by container kind — dense words, run extents, member arrays —
	// with the wire bytes each kind contributed. All zero on v2 streams,
	// where every label travels dense. Like the alias counters they count
	// each child payload once, whatever the reduction's grouping.
	LabelStats trace.LabelStats
	// MaxLeafPayloadBytes is the largest single daemon payload.
	MaxLeafPayloadBytes int64
	// FrontEndInBytes is the root's total merge-phase ingress.
	FrontEndInBytes int64
	// Liveness is the set of MPI ranks the merged trees account for. nil
	// means the gather completed in full (every run without
	// Options.FaultTolerant, and fault-tolerant runs that saw no fault);
	// non-nil means subtrees were lost and the trees cover exactly the set
	// bits. MissingRanks is the complement's count, Tasks − Liveness.Count().
	Liveness     *bitvec.Vector
	MissingRanks int
	// SampleStats are the batched sampling engine's cumulative counters —
	// stacks walked, per-PC resolver calls and their cache misses. The
	// ratios they imply are what the direct-to-tree engine exploits:
	// spinning tasks walk a small population of call paths, so nearly
	// every frame descends by a span check and never reaches the
	// resolver. Snapshots sealed, delta rounds and walk-slot waits count
	// too. They are read after the session's last round, streamed rounds
	// included.
	SampleStats sample.Stats
	// SBRSReport is non-nil when SBRS ran.
	SBRSReport *sbrs.Report

	// StreamRounds counts the streamed gather rounds that ran
	// (Options.Stream); StreamDeltaRounds the ones that arrived as delta
	// frames and folded into the resident trees, the rest gathered whole.
	StreamRounds      int
	StreamDeltaRounds int
	// StreamDeltaBytes / StreamWholeBytes split the front end's streamed-
	// round ingress by round kind — the delta mode's bandwidth win is the
	// ratio of the per-round averages. StreamDeltaNodes counts the delta
	// nodes folded by ApplyDelta across all delta rounds.
	StreamDeltaBytes int64
	StreamWholeBytes int64
	StreamDeltaNodes int64
	// StreamMixedRetries counts rounds re-gathered whole because the
	// daemons split between delta and whole-tree answers (the fallback
	// protocol); zero in a healthy homogeneous session.
	StreamMixedRetries int
	// StreamEvents records the rounds whose fold changed the 2D tree's
	// equivalence-class structure — the hang-onset signal of continuous
	// monitoring: a stable application streams empty deltas and no
	// events, and the round a task wedges shows up as a class transition.
	StreamEvents []StreamEvent

	// Telemetry is the cold gather round's fleet telemetry frame —
	// every daemon's walk/seal/encode/send spans and byte counters plus
	// every interior filter's merge/fold spans, folded up the TBON and
	// piggybacked on the result packet. nil when Options.Telemetry is
	// off. Streamed rounds' frames are observed per round via
	// Options.StreamRoundTelemetry.
	Telemetry *telemetry.Frame
	// FlightDumps carries the flight-recorder tails of the daemons a
	// degraded gather lost (one entry per daemon with missing ranks);
	// nil unless the run was degraded with telemetry on. The CLI prints
	// them under DEGRADED results and embeds them in STSM captures.
	FlightDumps []FlightDump
}

// StreamEvent is one equivalence-class transition observed during a
// streaming session (see Result.StreamEvents).
type StreamEvent struct {
	// Round is the 1-based streamed round whose fold changed the class
	// structure.
	Round int
	// Classes / PrevClasses are the 2D equivalence-class counts after and
	// before the round. They can be equal: membership shifts count as
	// transitions too (the signature hashes paths and members, not just
	// the count).
	Classes, PrevClasses int
}

// New validates options and prepares the run: places daemons, builds the
// analysis tree, populates the machine's file systems with the application
// binaries, and parses their symbol tables the way a daemon would.
func New(opts Options) (*Tool, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	t := &Tool{opts: opts, mach: opts.Machine, eng: sim.NewEngine()}

	var err error
	t.daemons, err = t.mach.DaemonsFor(opts.Tasks, opts.Mode)
	if err != nil {
		return nil, err
	}
	t.topo, err = opts.Topology.Build(t.daemons)
	if err != nil {
		return nil, err
	}
	t.merge = &merger{mode: opts.BitVec, tasks: opts.Tasks, taskMap: t.mach.TaskMap(opts.Tasks, t.daemons)}

	t.app = opts.App
	if t.app == nil {
		t.app, err = mpisim.NewRing(opts.Tasks,
			mpisim.WithThreads(opts.ThreadsPerTask),
			mpisim.WithSeed(opts.Seed^0xA99))
		if err != nil {
			return nil, err
		}
	}
	if t.app.N != opts.Tasks {
		return nil, fmt.Errorf("core: app has %d tasks, options say %d", t.app.N, opts.Tasks)
	}

	for leaf := range opts.DaemonWireCaps {
		if leaf < 0 || leaf >= t.daemons {
			return nil, fmt.Errorf("core: DaemonWireCaps names daemon %d, run has %d daemons", leaf, t.daemons)
		}
	}

	if err := t.populateFS(); err != nil {
		return nil, err
	}
	if err := t.loadSymbols(); err != nil {
		return nil, err
	}
	t.sampler = sample.New(t.app, t.symtab, opts.SampleWorkers)
	if opts.Telemetry {
		t.telem = newToolTelemetry(t.daemons, t.sampler.Slots(),
			tbon.PoolWorkers(opts.ReduceWorkers, t.daemons))
	}

	// Per-run stream: identical configurations reproduce exactly; any
	// change to scale, topology, mode or representation draws fresh
	// jitter, which is how run-to-run variation shows up across series.
	t.rng = sim.NewRNG(opts.Seed).Derive(
		uint64(opts.Tasks), uint64(opts.Mode), uint64(opts.Topology.Kind),
		uint64(opts.Topology.Depth), uint64(opts.BitVec))
	return t, nil
}

// populateFS mounts the machine's file systems and writes the application
// binaries to their paper-faithful locations.
func (t *Tool) populateFS() error {
	t.fs, _ = t.mach.BuildFS(t.eng)
	if t.mach.StaticBinary {
		img, err := stackwalk.StaticImage()
		if err != nil {
			return err
		}
		t.fs.WriteFile(t.mach.Binaries[0].Path, img)
		return nil
	}
	images, err := stackwalk.AppImages()
	if err != nil {
		return err
	}
	for _, b := range t.mach.Binaries {
		img, ok := images[b.Module]
		if !ok {
			return fmt.Errorf("core: no image for module %q", b.Module)
		}
		t.fs.WriteFile(b.Path, img)
	}
	return nil
}

// loadSymbols parses every binary image exactly as a daemon does (the
// parse is real; only its wall-clock cost is modeled during the sampling
// phase) and merges the per-module tables into one resolver.
func (t *Tool) loadSymbols() error {
	var tables []*stackwalk.SymbolTable
	for _, b := range t.mach.Binaries {
		var data []byte
		var rerr error
		got := false
		t.fs.ReadFile(0, b.Path, func(_ float64, d []byte, err error) {
			data, rerr, got = d, err, true
		})
		t.eng.Run()
		if !got || rerr != nil {
			return fmt.Errorf("core: read %s: %v", b.Path, rerr)
		}
		st, err := stackwalk.ParseImage(data)
		if err != nil {
			return fmt.Errorf("core: parse %s: %w", b.Path, err)
		}
		tables = append(tables, st)
	}
	merged, err := stackwalk.Merge(tables...)
	if err != nil {
		return err
	}
	t.symtab = merged
	return nil
}

// Daemons reports the daemon count of the configured run.
func (t *Tool) Daemons() int { return t.daemons }

// Topology reports the analysis tree layout.
func (t *Tool) Topology() *topology.Tree { return t.topo }

// TaskMap reports the daemon→ranks assignment.
func (t *Tool) TaskMap() [][]int { return t.merge.taskMap }

// Run executes all phases and assembles the result. Environment failures
// (launch, merge fan-in) are reported in the Result, not as errors; an
// error return means the configuration itself is invalid.
func (t *Tool) Run() (*Result, error) {
	res := &Result{Tasks: t.opts.Tasks, Daemons: t.daemons, Topo: t.topo}

	res.Times.Launch, res.LaunchErr = t.runLaunchPhase()
	if res.LaunchErr != nil {
		return res, nil
	}

	if t.opts.UseSBRS {
		rep, err := t.runSBRSPhase()
		if err != nil {
			return nil, err
		}
		res.SBRSReport = rep
		res.Times.SBRS = rep.TotalSec
	}

	sampleTime, err := t.runSamplePhase()
	if err != nil {
		return nil, err
	}
	res.Times.Sample = sampleTime

	if err := t.runMergePhase(res); err != nil {
		return nil, err
	}
	if res.MergeErr != nil {
		return res, nil
	}

	res.Classes = res.Tree2D.EquivalenceClasses()
	return res, nil
}

// runSBRSPhase relocates the shared binaries. The broadcast fabric is
// LaunchMON's back-end communication tree over the daemons — a balanced
// 2-deep spanning tree independent of the analysis topology (the paper's
// prototype distributed binaries through the Infiniband switch this way,
// which is why relocation stays fast even when STAT itself runs 1-deep).
func (t *Tool) runSBRSPhase() (*sbrs.Report, error) {
	fabric, err := topology.Balanced(2, t.daemons)
	if err != nil {
		return nil, err
	}
	svc := sbrs.New(sbrs.DefaultConfig(t.mach.TreeLink), t.fs, fabric)
	paths := make([]string, len(t.mach.Binaries))
	for i, b := range t.mach.Binaries {
		paths[i] = b.Path
	}
	return svc.Relocate(t.eng, paths)
}
