// Package core implements STAT itself: the front end, the tool daemons,
// and the stack-trace analysis pipeline, orchestrated over the substrates
// (overlay network, launcher, file systems, machine models). A Tool runs
// the paper's four measured phases — daemon launch, stack sampling with a
// local merge, the tree-wide merge through the TBON, and (in hierarchical
// mode) the front end's rank-order remap — producing both the real merged
// prefix trees and the modeled wall-clock time of each phase at machine
// scale.
//
// # Failure semantics
//
// By default every phase is all-or-nothing: any daemon, link, or filter
// failure fails the run with an attributed error, and no partial state
// escapes. Options.FaultTolerant relaxes this for the data gather only —
// control traffic (attach, sample requests, detach) always runs
// fault-free, so a degraded gather never strands the session protocol.
//
// A fault-tolerant gather drops subtrees lost to a crash, a partitioned
// link, or a per-subtree timeout (Options.SubtreeTimeout), re-parents
// the children of a crashed communication process, and merges what
// survives. The result filter attaches an explicit liveness set to every
// partial packet (proto.MsgPartialResult): full subtrees contribute the
// task coverage of their topology span, partial subtrees contribute the
// liveness they decoded, so subtrees recovered by orphan adoption count
// as surviving without re-deriving engine semantics. The front end
// surfaces the outcome in Result.Liveness (nil means every rank is
// accounted for) and Result.MissingRanks; in hierarchical mode the final
// rank remap permutes only the surviving daemons' ranks. A degraded tree
// equals the fault-free merge restricted (trace.Tree.Focus) to the
// surviving ranks — the differential suites pin both directions.
//
// Filter and merge logic errors remain fatal in every mode: fault
// tolerance forgives the fabric, never the data.
//
// # Session mode matrix
//
// Three orthogonal session behaviors compose — or explicitly refuse to.
// Every gather samples the same way: each daemon walks, seals and emits
// its round in sequence on the goroutine that produces its gather payload
// (Engine.Sample), and a delta round walks the daemon's resident keyed
// walker instead (Engine.SampleKeyed). First the fault/streaming axes:
//
//	                 one-shot      streaming (Stream > 0)
//	fault-free       default: one  deltas from the keyed resident
//	                 walk per      walker's seal-time extraction
//	                 daemon, then
//	                 the reduction
//	fault-tolerant   degraded      REJECTED (fillDefaults): a partial
//	                 partial       fold has no well-defined delta base;
//	                 results, the  see ROADMAP for the per-subtree
//	                 same walks    re-sync epoch design that lifts this
//
// Telemetry (Options.Telemetry) is a pure observer and composes with
// every row, riding the same packets the row already sends:
//
//	telemetry ×      behavior
//	one-shot         the cold round's fleet frame lands in
//	                 Result.Telemetry; flight recorders hold the round's
//	                 leaf spans
//	streaming        every round's folded frame reaches the front end
//	                 (Options.StreamRoundTelemetry observes each one);
//	                 delta rounds piggyback frames on MsgDelta bodies
//	                 exactly as whole rounds do on MsgResult
//	fault-tolerant   a degraded round's frame counts only surviving
//	                 daemons (Frame.Daemons is the telemetry plane's own
//	                 coverage report), and Result.FlightDumps carries the
//	                 lost daemons' flight-recorder tails
//
// The merged result trees are byte-identical with telemetry on and off
// in every cell — the differential suite pins it — because the section
// is a trailer the filters strip before tree decode and append after
// tree encode, never part of the tree bytes.
//
// Within a streaming session the delta machinery degrades rather than
// demands: Options.StreamWholeTree streams whole trees, a daemon whose
// walker lost continuity answers whole and re-deltas the
// next round, and a mixed round re-gathers whole deterministically.
package core

import (
	"fmt"
	"time"

	"stat/internal/launch"
	"stat/internal/machine"
	"stat/internal/mpisim"
	"stat/internal/proto"
	"stat/internal/tbon"
	"stat/internal/telemetry"
	"stat/internal/topology"
	"stat/internal/trace"
)

// BitVecMode selects the task-set representation (the paper's Section V).
type BitVecMode int

const (
	// Original sizes every edge label to the full job width at every level
	// of the analysis tree and merges labels by union.
	Original BitVecMode = iota
	// Hierarchical keeps subtree-local labels that merge by concatenation,
	// with a single remap into rank order at the front end.
	Hierarchical
)

func (m BitVecMode) String() string {
	if m == Hierarchical {
		return "hierarchical"
	}
	return "original"
}

// Options configure one STAT run.
type Options struct {
	// Machine is the platform model (machine.Atlas() or machine.BGL()).
	Machine *machine.Machine
	// Mode is the BG/L execution mode; ignored on Atlas.
	Mode machine.Mode
	// Tasks is the application's MPI task count.
	Tasks int
	// Topology lays out the analysis tree.
	Topology topology.Spec
	// BitVec selects the task-set representation.
	BitVec BitVecMode
	// Launcher starts daemons on Atlas-style machines; nil selects
	// LaunchMON. On BG/L the control system launches daemons and the
	// launcher is ignored.
	Launcher launch.Launcher
	// BGLPatched selects the post-IBM-patch control system on BG/L.
	BGLPatched bool
	// UseSBRS relocates shared binaries to RAM disk before sampling.
	UseSBRS bool
	// Samples is the number of stack traces gathered per task (paper: 10).
	Samples int
	// ThreadsPerTask enables the Section VII extension (>1 thread).
	ThreadsPerTask int
	// Seed drives all pseudo-random variation.
	Seed uint64
	// Engine names the TBON reduction engine; only the zero value,
	// tbon.EnginePipelined, is valid.
	//
	// Deprecated: the pipelined pool is the only engine.
	Engine int
	// ReduceWorkers bounds the TBON reduction's worker pool (every session
	// reduction: control acks and the gather merge); 0 means GOMAXPROCS,
	// and 1 is the single-threaded sequential fold (same result bytes and
	// traffic at any worker count).
	ReduceWorkers int
	// ReduceBudgetBytes bounds the reduction's in-flight payload bytes; 0
	// bounds payloads instead, admitting at most one produced-but-unfolded
	// payload per worker ahead of the fold. While a byte budget has room,
	// comm processes defer their folds to merge all their children in one
	// filter call; the default bound folds as payloads arrive.
	ReduceBudgetBytes int64
	// WireVersion caps the data-stream wire version this tool's front end
	// and daemons advertise during the attach handshake; the session
	// lands on the highest common version at or below the cap. Zero means
	// the build's maximum (proto.MaxVersion); otherwise it must lie in
	// [proto.Version, proto.MaxVersion]. Pinning 2 keeps every label dense
	// (STR2) — for measuring what v3's compressed containers save.
	WireVersion uint8
	// SampleWorkers is the sampling engine's number of walk slots: how
	// many daemons may walk stacks concurrently, each on a warm pooled
	// trie. 0 means GOMAXPROCS.
	SampleWorkers int
	// DaemonWireCaps caps individual daemons' advertised data-stream wire
	// version, keyed by leaf index — simulating a mixed-version fleet. A
	// capped daemon negotiates at most its cap at attach, the ack merge's
	// minimum carries the downgrade to the front end, and the data
	// stream's merge filters re-encode at the minimum of their children,
	// so one v2-capped daemon degrades the whole session's result to v2
	// while uncapped subtrees still ship v3 up to the join. Daemons
	// absent from the map advertise the build maximum (still subject to
	// WireVersion).
	DaemonWireCaps map[int]uint8
	// App overrides the default buggy ring application.
	App *mpisim.App
	// Stream runs N additional steady-state gather rounds after the
	// paper's single cold gather — the continuous-monitoring mode. Each
	// round issues a fresh sample command and gathers again over the same
	// attached session; unless StreamWholeTree is set, daemons
	// answer with delta frames — per-node XOR change sets against their
	// previous round — which the front end folds into the resident trees
	// with trace.ApplyDelta, so a steady round's wire traffic scales with
	// what changed, not with the tree. Result.Stream* and
	// PhaseTimes.Stream report the rounds; Result.Tree2D/Tree3D end as
	// the final round's trees. Zero means the classic single-gather run.
	// Mutually exclusive with FaultTolerant: a degraded (partial) fold
	// has no well-defined delta base.
	Stream int
	// StreamWholeTree forces every streamed round to gather whole trees
	// even where deltas are available — the reference leg the streaming
	// differential suite compares the delta fold against, and the
	// baseline of the ingress measurements.
	StreamWholeTree bool
	// StreamRound, when non-nil, observes each streamed round after its
	// fold: the round number, whether the round arrived as delta frames,
	// and the resident trees (read-only, valid only during the call).
	// Round 0 is the cold gather the stream starts from (always whole
	// trees), so a recorder sees the complete replayable sequence. Used
	// by the CLI's stream capture and the differential tests.
	StreamRound func(round int, delta bool, t2, t3 *trace.Tree)
	// Telemetry enables the observability plane: per-daemon flight
	// recorders, a session-lifetime metric registry (Tool.
	// TelemetryRegistry, for the -debug-addr exposition endpoint), and a
	// per-round fleet telemetry frame that daemons piggyback on their
	// gather replies and interior filters fold on the way up, landing in
	// Result.Telemetry. Telemetry is a pure observer: result trees are
	// byte-identical with it on or off, and the instrumented gather path
	// stays allocation-free at steady state.
	Telemetry bool
	// StreamRoundTelemetry, when non-nil (and Telemetry is on), observes
	// each streamed round's folded fleet frame after the round's
	// gather — including round 0, the cold gather the stream starts
	// from. The frame is read-only and valid only during the call. Used
	// by the CLI's per-round follow lines.
	StreamRoundTelemetry func(round int, f *telemetry.Frame)
	// FaultTolerant makes the gather degrade gracefully instead of failing
	// whole-run: subtrees lost to a crash, partition, or timeout are
	// dropped, the merged result carries a liveness set of the surviving
	// ranks (Result.Liveness), and the children of a crashed communication
	// process are re-parented. Control traffic (attach/sample/detach) stays
	// fault-free — fault tolerance is a property of the data gather.
	FaultTolerant bool
	// SubtreeTimeout bounds how long a gather node waits on any one child
	// subtree before declaring it lost. Zero defaults to 5s when
	// FaultTolerant is set; ignored otherwise.
	SubtreeTimeout time.Duration
	// GatherFaults injects scripted failures (crashes, slow links,
	// partitions — see tbon.FaultPlan) into the gather reduction. Requires
	// FaultTolerant. nil injects nothing.
	GatherFaults *tbon.FaultPlan
}

func (o *Options) fillDefaults() error {
	if o.Machine == nil {
		return fmt.Errorf("core: Options.Machine is required")
	}
	if o.Tasks < 3 {
		return fmt.Errorf("core: need at least 3 tasks, got %d", o.Tasks)
	}
	if o.Samples == 0 {
		o.Samples = 10
	}
	if o.Samples < 1 {
		return fmt.Errorf("core: Samples must be >= 1, got %d", o.Samples)
	}
	if o.ThreadsPerTask == 0 {
		o.ThreadsPerTask = 1
	}
	if o.ThreadsPerTask < 1 {
		return fmt.Errorf("core: ThreadsPerTask must be >= 1, got %d", o.ThreadsPerTask)
	}
	if o.Launcher == nil {
		o.Launcher = launch.DefaultLaunchMON()
	}
	if o.Seed == 0 {
		o.Seed = 0x208e3
	}
	if o.WireVersion != 0 && (o.WireVersion < proto.Version || o.WireVersion > proto.MaxVersion) {
		return fmt.Errorf("core: WireVersion %d outside this build's range %d..%d", o.WireVersion, proto.Version, proto.MaxVersion)
	}
	if o.SampleWorkers < 0 {
		return fmt.Errorf("core: SampleWorkers must be >= 0, got %d", o.SampleWorkers)
	}
	for leaf, cap := range o.DaemonWireCaps {
		if cap < proto.Version || cap > proto.MaxVersion {
			return fmt.Errorf("core: daemon %d wire cap %d outside this build's range %d..%d",
				leaf, cap, proto.Version, proto.MaxVersion)
		}
	}
	if o.GatherFaults != nil && !o.FaultTolerant {
		return fmt.Errorf("core: GatherFaults requires FaultTolerant")
	}
	if o.Engine != 0 {
		return fmt.Errorf("core: unknown reduction engine %d (the pipelined pool is the only engine)", o.Engine)
	}
	if o.Stream < 0 {
		return fmt.Errorf("core: Stream must be >= 0, got %d", o.Stream)
	}
	if o.Stream > 0 && o.FaultTolerant {
		return fmt.Errorf("core: Stream and FaultTolerant are mutually exclusive (a partial fold has no delta base)")
	}
	if o.SubtreeTimeout < 0 {
		return fmt.Errorf("core: SubtreeTimeout must be >= 0, got %v", o.SubtreeTimeout)
	}
	if o.FaultTolerant && o.SubtreeTimeout == 0 {
		o.SubtreeTimeout = 5 * time.Second
	}
	return nil
}

// reduceOpts assembles the tbon reduction options. Control
// reductions (attach acks, sample acks, detach) use it directly: they run
// fault-free so a scripted gather fault never strands the session protocol.
func (o *Options) reduceOpts() tbon.ReduceOptions {
	return tbon.ReduceOptions{
		Workers:     o.ReduceWorkers,
		BudgetBytes: o.ReduceBudgetBytes,
	}
}

// gatherReduceOpts is reduceOpts plus the fault-tolerance knobs; only the
// data gather uses it.
func (o *Options) gatherReduceOpts() tbon.ReduceOptions {
	ro := o.reduceOpts()
	if o.FaultTolerant {
		ro.Partial = true
		ro.SubtreeTimeout = o.SubtreeTimeout
		ro.Faults = o.GatherFaults
	}
	return ro
}

// PhaseTimes holds the modeled duration of each tool phase in seconds.
//
// Sample is the first (cold) round: its first walk per task pays symbol
// resolution and trie growth, and Total() charges it in full.
// SampleSteady describes the repeated steady-state rounds of a long
// session instead: an all-warm walk. It is reported separately rather
// than folded into Total(), which remains the paper's single-gather wall
// clock.
type PhaseTimes struct {
	Launch float64
	SBRS   float64
	Sample float64
	Merge  float64
	Remap  float64

	// SampleSteady is the modeled walk time of one steady-state gather
	// round (every call path warm in the trie; no cold resolution, no jitter
	// tail — steady rounds resample a stable working set).
	SampleSteady float64
	// Stream is the summed modeled reduction time of the streamed rounds
	// (Options.Stream), each computed from that round's actual gather
	// traffic — delta rounds ship far fewer bytes, and this is where the
	// saving lands in the time model. Not part of Total(): like
	// SampleSteady it describes the ongoing session, not the paper's
	// single cold gather.
	Stream float64
}

// Total sums the phases of the paper's measured single gather (the cold
// round). Steady-state rounds are modeled by SteadyRound, not added here.
func (p PhaseTimes) Total() float64 {
	return p.Launch + p.SBRS + p.Sample + p.Merge + p.Remap
}

// SteadyRound is the modeled wall clock of one steady-state gather round:
// the warm walk, then the reduction and the remap.
func (p PhaseTimes) SteadyRound() float64 {
	return p.SampleSteady + p.Merge + p.Remap
}
