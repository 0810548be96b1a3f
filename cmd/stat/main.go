// Command stat runs the Stack Trace Analysis Tool against a simulated
// parallel application and reports the process equivalence classes, the
// merged call-graph prefix trees, and the modeled time of each tool phase.
//
//	stat -tasks 1024                          # Atlas, defaults
//	stat -machine bgl -mode vn -tasks 8192    # BG/L virtual-node mode
//	stat -topology 2deep -bitvec hierarchical # the optimized configuration
//	stat -dot tree.dot                        # write the 3D tree as DOT
//	stat -stream 20 -stream-save run.stsm     # streaming temporal mode
package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"stat/internal/bitvec"
	"stat/internal/core"
	"stat/internal/machine"
	"stat/internal/proto"
	"stat/internal/tbon"
	"stat/internal/telemetry"
	"stat/internal/topology"
	"stat/internal/trace"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "stat:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set rejected; the flag set has
// already printed the error and the usage.
var errUsage = errors.New("usage error")

// fillFaultPlan populates an injection plan from the CLI's range flags once
// the topology exists: daemon ranges are leaf indexes, node ranges are
// breadth-first node IDs.
func fillFaultPlan(plan *tbon.FaultPlan, topo *topology.Tree,
	crashDaemons, crashNodes, cutNodes, slowNodes string, slowLink time.Duration) error {
	nodeCount := 0
	for _, lvl := range topo.Levels {
		nodeCount += len(lvl)
	}
	parseNodes := func(flagName, s string) ([]int, error) {
		ids, err := bitvec.ParseRanges(s)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", flagName, err)
		}
		for _, id := range ids {
			if id >= nodeCount {
				return nil, fmt.Errorf("-%s: node %d out of range (topology has nodes 0..%d)", flagName, id, nodeCount-1)
			}
		}
		return ids, nil
	}
	crash := map[int]bool{}
	if crashDaemons != "" {
		leaves, err := bitvec.ParseRanges(crashDaemons)
		if err != nil {
			return fmt.Errorf("-crash-daemons: %w", err)
		}
		for _, leaf := range leaves {
			if leaf >= len(topo.Leaves) {
				return fmt.Errorf("-crash-daemons: daemon %d out of range (run has %d daemons)", leaf, len(topo.Leaves))
			}
			crash[topo.Leaves[leaf].ID] = true
		}
	}
	if crashNodes != "" {
		ids, err := parseNodes("crash-nodes", crashNodes)
		if err != nil {
			return err
		}
		for _, id := range ids {
			crash[id] = true
		}
	}
	if len(crash) > 0 {
		plan.Crash = crash
	}
	if cutNodes != "" {
		ids, err := parseNodes("cut-nodes", cutNodes)
		if err != nil {
			return err
		}
		plan.CutLinks = map[int]bool{}
		for _, id := range ids {
			plan.CutLinks[id] = true
		}
	}
	if slowNodes != "" {
		ids, err := parseNodes("slow-nodes", slowNodes)
		if err != nil {
			return err
		}
		plan.SlowLinks = map[int]time.Duration{}
		for _, id := range ids {
			plan.SlowLinks[id] = slowLink
		}
	}
	return nil
}

// streamCaptureMagic heads a stream capture file: the magic, a format
// byte, then one record per observed round — a kind byte (0 = whole 2D
// tree, 1 = delta frame, 2 = UTF-8 post-mortem text), a little-endian
// uint32 payload length, and the payload. Kind 0/1 payloads are frame
// bytes in the trace wire format; record 0 is always the cold gather's
// whole tree, and stat-view replays the sequence with trace.ApplyDelta.
// Kind-2 records carry the flight-recorder dump of a degraded run's
// implicated daemons, so a faulty capture is its own post-mortem.
const (
	streamCaptureMagic   = "STSM"
	streamCaptureVersion = 1
)

// streamCapture records a streaming session's 2D rounds. The session
// hands the hook folded resident trees, not wire frames, so delta records
// are re-derived: XORing the previous round's retained copy with the
// current tree (trace.MergeXor) yields exactly the canonical delta frame
// between the two rounds, pruned of unchanged subtrees.
type streamCapture struct {
	f       *os.File
	w       *bufio.Writer
	prev    *trace.Tree
	records int
	bytes   int64
	err     error
}

func newStreamCapture(path string) (*streamCapture, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	c := &streamCapture{f: f, w: bufio.NewWriter(f)}
	c.w.WriteString(streamCaptureMagic)
	c.w.WriteByte(streamCaptureVersion)
	return c, nil
}

func (c *streamCapture) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *streamCapture) record(delta bool, t2 *trace.Tree) {
	if c.err != nil {
		return
	}
	enc, err := t2.MarshalBinaryV(trace.WireV3)
	if err != nil {
		c.fail(err)
		return
	}
	// cur is this round's retained copy: owned mutable labels, so the next
	// round can XOR against it.
	cur, err := trace.UnmarshalBinary(enc)
	if err != nil {
		c.fail(err)
		return
	}
	kind, payload := byte(0), enc
	if delta && c.prev != nil {
		if err := trace.MergeXor(c.prev, t2); err != nil {
			c.fail(err)
			return
		}
		if payload, err = c.prev.AppendBinaryDeltaV(nil, trace.WireV3); err != nil {
			c.fail(err)
			return
		}
		kind = 1
	}
	if c.prev != nil {
		c.prev.Release()
	}
	c.prev = cur
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	c.w.WriteByte(kind)
	c.w.Write(lenBuf[:])
	if _, err := c.w.Write(payload); err != nil {
		c.fail(err)
		return
	}
	c.records++
	c.bytes += int64(len(payload))
}

// postmortem appends a kind-2 record: UTF-8 diagnostic text (the
// flight-recorder tails of a degraded run's implicated daemons).
func (c *streamCapture) postmortem(text string) {
	if c.err != nil || text == "" {
		return
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(text)))
	c.w.WriteByte(2)
	c.w.Write(lenBuf[:])
	if _, err := c.w.WriteString(text); err != nil {
		c.fail(err)
		return
	}
	c.records++
	c.bytes += int64(len(text))
}

func (c *streamCapture) close() error {
	if c.prev != nil {
		c.prev.Release()
		c.prev = nil
	}
	if err := c.w.Flush(); err != nil {
		c.fail(err)
	}
	if err := c.f.Close(); err != nil {
		c.fail(err)
	}
	return c.err
}

// flagGroups orders the CLI's flags by subsystem for -h. Every flag
// must appear in exactly one group; groupedUsage sweeps any unclaimed
// stragglers into a trailing "other" section so a new flag is visible
// even before it is sorted.
var flagGroups = []struct {
	title string
	names []string
}{
	{"session (application, sampling, reduction)", []string{
		"machine", "mode", "tasks", "topology", "bitvec", "samples", "threads",
		"sbrs", "unpatched", "seed", "sample-workers",
		"reduce-workers", "reduce-budget",
	}},
	{"wire (negotiated data-stream format)", []string{"wire"}},
	{"fault tolerance & injection", []string{
		"fault-tolerant", "subtree-timeout", "crash-daemons", "crash-nodes",
		"cut-nodes", "slow-nodes", "slow-link",
	}},
	{"stream (temporal mode)", []string{"stream", "stream-whole", "stream-save"}},
	{"telemetry (observability plane)", []string{"telemetry", "debug-addr"}},
	{"output & reporting", []string{"classes", "tree", "dot", "save", "progress"}},
}

func printFlag(w io.Writer, f *flag.Flag) {
	arg, usage := flag.UnquoteUsage(f)
	line := "  -" + f.Name
	if arg != "" {
		line += " " + arg
	}
	fmt.Fprintf(w, "%s\n    \t%s", line, strings.ReplaceAll(usage, "\n", "\n    \t"))
	switch f.DefValue {
	case "", "false", "0", "0s":
	default:
		fmt.Fprintf(w, " (default %s)", f.DefValue)
	}
	fmt.Fprintln(w)
}

// groupedUsage replaces the flat alphabetical -h listing of fs with the
// subsystem grouping above.
func groupedUsage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintf(w, "usage: stat [flags]\n")
	seen := make(map[string]bool)
	for _, g := range flagGroups {
		fmt.Fprintf(w, "\n%s:\n", g.title)
		for _, name := range g.names {
			if f := fs.Lookup(name); f != nil {
				seen[name] = true
				printFlag(w, f)
			}
		}
	}
	var rest []*flag.Flag
	fs.VisitAll(func(f *flag.Flag) {
		if !seen[f.Name] {
			rest = append(rest, f)
		}
	})
	if len(rest) > 0 {
		fmt.Fprintf(w, "\nother:\n")
		for _, f := range rest {
			printFlag(w, f)
		}
	}
}

// fmtNs renders a nanosecond duration at the precision the telemetry
// report needs.
func fmtNs(ns int64) string {
	switch d := time.Duration(ns); {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// printTelemetry reports the session's fleet telemetry frame to w:
// per-span aggregates and the byte/lease/fan-in counters, TBON-folded
// across every daemon and interior filter of the (cold) round.
func printTelemetry(w io.Writer, f *telemetry.Frame) {
	fmt.Fprintf(w, "\ntelemetry (fleet view of round %d: %d daemons, %d filter calls):\n",
		f.Round, f.Daemons, f.Filters)
	for k := 0; k < telemetry.NumSpanKinds; k++ {
		a := f.Spans[k]
		if a.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %5d spans   mean %9s   min %9s   max %9s\n",
			telemetry.SpanKind(k), a.Count, fmtNs(a.Mean()), fmtNs(a.MinNs), fmtNs(a.MaxNs))
	}
	fmt.Fprintf(w, "  leaf payload %s, merged %s; max live leases %d, max fan-in %d\n",
		byteCount(f.PayloadBytes), byteCount(f.MergedBytes), f.LiveLeases, f.QueueDepth)
}

// renderFlightDumps formats the flight-recorder tails of a degraded
// run's implicated daemons — shared by the console report and the
// stream capture's kind-2 post-mortem record.
func renderFlightDumps(dumps []core.FlightDump) string {
	var b strings.Builder
	for _, d := range dumps {
		fmt.Fprintf(&b, "  daemon %d flight recorder (%d spans):\n", d.Leaf, len(d.Spans))
		if len(d.Spans) == 0 {
			fmt.Fprintf(&b, "    (no spans recorded)\n")
			continue
		}
		for _, s := range d.Spans {
			fmt.Fprintf(&b, "    #%-5d round %-4d %-12s %s\n", s.Seq, s.Round, s.Kind, fmtNs(s.Dur))
		}
	}
	return b.String()
}

// byteCount renders a byte total with a binary-unit suffix for the
// container-mix report.
func byteCount(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// run executes one stat session with the command-line arguments args
// (without the program name) and writes its report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stat", flag.ContinueOnError)
	var (
		machineName = fs.String("machine", "atlas", "machine model: atlas or bgl")
		modeName    = fs.String("mode", "co", "BG/L execution mode: co or vn")
		tasks       = fs.Int("tasks", 1024, "application task count")
		topoName    = fs.String("topology", "2deep", "analysis tree: flat, 2deep, 3deep")
		bitvecName  = fs.String("bitvec", "hierarchical", "task-set representation: original or hierarchical")
		samples     = fs.Int("samples", 10, "stack samples per task")
		threads     = fs.Int("threads", 1, "threads per task (Section VII extension)")
		useSBRS     = fs.Bool("sbrs", false, "relocate binaries with SBRS before sampling")
		unpatched   = fs.Bool("unpatched", false, "use the unpatched BG/L control system")
		seed        = fs.Uint64("seed", 0, "determinism seed (0 = default)")
		dotPath     = fs.String("dot", "", "write the 3D prefix tree as Graphviz DOT to this file")
		savePath    = fs.String("save", "", "save the merged 3D prefix tree (wire format) for stat-view")
		showTree    = fs.Bool("tree", false, "print the merged 3D prefix tree")
		maxClasses  = fs.Int("classes", 10, "max equivalence classes to print")
		progress    = fs.Bool("progress", false, "run a two-round progress check and report wedged tasks")
		workers     = fs.Int("reduce-workers", 0, "TBON reduction worker count (0 = GOMAXPROCS; 1 = sequential pairwise fold)")
		budget      = fs.Int64("reduce-budget", 0, "TBON reduction in-flight payload byte budget (0 = at most one unfolded payload per worker); while a budget has room, comm processes fold all their children in one call")
		wireVersion = fs.Uint("wire", 0, "cap the negotiated wire format version (0 = build maximum, else 2..3: 2 = 8-aligned STR2, 3 = compressed-label STR3)")
		sampWorkers = fs.Int("sample-workers", 0, "sampling engine's walk slots: daemon stack walks that may run at once (0 = GOMAXPROCS)")
		stream      = fs.Int("stream", 0, "streaming temporal mode: run this many differential sample/gather rounds after the initial snapshot (delta frames on v2+ wires)")
		streamWhole = fs.Bool("stream-whole", false, "stream whole trees every round instead of delta frames (the reference/debug leg)")
		streamSave  = fs.String("stream-save", "", "record the streamed 2D rounds as a stream capture (STSM) for stat-view replay")
		faultTol    = fs.Bool("fault-tolerant", false, "degrade gracefully when overlay subtrees fail: report partial results with a surviving-rank set instead of failing the run")
		subTimeout  = fs.Duration("subtree-timeout", 0, "per-subtree gather timeout under -fault-tolerant (0 = 5s default)")
		crashDaemon = fs.String("crash-daemons", "", "inject: crash these daemons mid-gather (leaf-index ranges, e.g. 0-3,7); requires -fault-tolerant")
		crashNodes  = fs.String("crash-nodes", "", "inject: crash these overlay nodes mid-gather (node-ID ranges); requires -fault-tolerant")
		cutNodes    = fs.String("cut-nodes", "", "inject: partition these overlay nodes' uplinks (node-ID ranges); requires -fault-tolerant")
		slowNodes   = fs.String("slow-nodes", "", "inject: delay these overlay nodes' uplinks (node-ID ranges); requires -fault-tolerant")
		slowLink    = fs.Duration("slow-link", 50*time.Millisecond, "delay applied to -slow-nodes uplinks")
		telem       = fs.Bool("telemetry", false, "enable the in-band telemetry plane: per-round span frames folded up the TBON, session metrics, and per-daemon flight recorders")
		debugAddr   = fs.String("debug-addr", "", "serve live Prometheus metrics at /metrics and net/http/pprof at /debug/pprof/ on this address (implies -telemetry)")
	)
	fs.Usage = func() { groupedUsage(fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	if *wireVersion != 0 && (*wireVersion < proto.Version || *wireVersion > proto.MaxVersion) {
		return fmt.Errorf("unknown wire version %d (this build speaks %d..%d)", *wireVersion, proto.Version, proto.MaxVersion)
	}
	opts := core.Options{
		Tasks:             *tasks,
		Samples:           *samples,
		ThreadsPerTask:    *threads,
		UseSBRS:           *useSBRS,
		BGLPatched:        !*unpatched,
		Seed:              *seed,
		ReduceWorkers:     *workers,
		ReduceBudgetBytes: *budget,
		WireVersion:       uint8(*wireVersion),
		SampleWorkers:     *sampWorkers,
		Stream:            *stream,
		StreamWholeTree:   *streamWhole,
		FaultTolerant:     *faultTol,
		SubtreeTimeout:    *subTimeout,
		Telemetry:         *telem || *debugAddr != "",
	}
	var capture *streamCapture
	if *streamSave != "" {
		if *stream <= 0 {
			return fmt.Errorf("-stream-save requires -stream")
		}
		var err error
		if capture, err = newStreamCapture(*streamSave); err != nil {
			return err
		}
		defer func() {
			// Reached only on early-error paths; the success path closes
			// (and nils) the capture after the stream summary.
			if capture != nil {
				capture.close()
			}
		}()
	}
	if *stream > 0 {
		opts.StreamRound = func(round int, delta bool, t2, t3 *trace.Tree) {
			kind := "whole"
			if delta {
				kind = "delta"
			}
			fmt.Fprintf(w, "  stream round %3d: %s, %d classes\n", round, kind, len(t2.EquivalenceClasses()))
			if capture != nil {
				capture.record(delta, t2)
			}
		}
		if opts.Telemetry {
			// The follow line rides under each round's summary line: the
			// round's fleet frame, compressed to the spans that steer tuning.
			opts.StreamRoundTelemetry = func(round int, f *telemetry.Frame) {
				fmt.Fprintf(w, "       telemetry: walk %s×%d, merge %s×%d, reduce-wait %s, payload %s\n",
					fmtNs(f.Spans[telemetry.SpanWalk].Mean()), f.Spans[telemetry.SpanWalk].Count,
					fmtNs(f.Spans[telemetry.SpanMerge].Mean()), f.Spans[telemetry.SpanMerge].Count,
					fmtNs(f.Spans[telemetry.SpanReduceWait].SumNs), byteCount(f.PayloadBytes))
			}
		}
	}
	injecting := *crashDaemon != "" || *crashNodes != "" || *cutNodes != "" || *slowNodes != ""
	if injecting {
		if !*faultTol {
			return fmt.Errorf("fault injection flags require -fault-tolerant")
		}
		// The plan's node IDs depend on the topology, which core.New
		// builds; the engine reads the plan at gather time, so an empty
		// plan registered now is filled in below.
		opts.GatherFaults = &tbon.FaultPlan{}
	}
	switch *machineName {
	case "atlas":
		opts.Machine = machine.Atlas()
	case "bgl":
		opts.Machine = machine.BGL()
	default:
		return fmt.Errorf("unknown machine %q (atlas|bgl)", *machineName)
	}
	switch *modeName {
	case "co":
		opts.Mode = machine.CO
	case "vn":
		opts.Mode = machine.VN
	default:
		return fmt.Errorf("unknown mode %q (co|vn)", *modeName)
	}
	switch *topoName {
	case "flat", "1deep":
		opts.Topology = topology.Spec{Kind: topology.KindFlat}
	case "2deep":
		if *machineName == "bgl" {
			opts.Topology = topology.Spec{Kind: topology.KindBGL2Deep}
		} else {
			opts.Topology = topology.Spec{Kind: topology.KindBalanced, Depth: 2}
		}
	case "3deep":
		if *machineName == "bgl" {
			opts.Topology = topology.Spec{Kind: topology.KindBGL3Deep}
		} else {
			opts.Topology = topology.Spec{Kind: topology.KindBalanced, Depth: 3}
		}
	default:
		return fmt.Errorf("unknown topology %q (flat|2deep|3deep)", *topoName)
	}
	switch *bitvecName {
	case "original":
		opts.BitVec = core.Original
	case "hierarchical", "optimized":
		opts.BitVec = core.Hierarchical
	default:
		return fmt.Errorf("unknown bitvec mode %q (original|hierarchical)", *bitvecName)
	}

	tool, err := core.New(opts)
	if err != nil {
		return err
	}
	if injecting {
		if err := fillFaultPlan(opts.GatherFaults, tool.Topology(),
			*crashDaemon, *crashNodes, *cutNodes, *slowNodes, *slowLink); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "STAT: %s, %d tasks, %d daemons, %s tree, %s bit vectors\n",
		opts.Machine.Name, *tasks, tool.Daemons(), *topoName, opts.BitVec)
	if *debugAddr != "" {
		ds, err := telemetry.ServeDebug(*debugAddr, tool.TelemetryRegistry())
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		defer ds.Close()
		fmt.Fprintf(w, "debug endpoint: http://%s/metrics (pprof under /debug/pprof/)\n", ds.Addr)
	}

	res, err := tool.Run()
	if err != nil {
		return err
	}
	if res.LaunchErr != nil {
		fmt.Fprintf(w, "launch FAILED after %.2fs: %v\n", res.Times.Launch, res.LaunchErr)
		return nil
	}
	if res.MergeErr != nil {
		fmt.Fprintf(w, "merge FAILED: %v\n", res.MergeErr)
		return nil
	}
	if res.Liveness != nil {
		var missing []int
		for r := 0; r < *tasks; r++ {
			if !res.Liveness.Get(r) {
				missing = append(missing, r)
			}
		}
		fmt.Fprintf(w, "\nDEGRADED RESULT: %d of %d ranks missing (ranks %s); trees cover the %d surviving ranks\n",
			res.MissingRanks, *tasks, bitvec.FormatRanges(missing), res.Liveness.Count())
		if len(res.FlightDumps) > 0 {
			fmt.Fprint(w, renderFlightDumps(res.FlightDumps))
		}
	}

	fmt.Fprintf(w, "\nphase times (modeled):\n")
	fmt.Fprintf(w, "  launch   %8.2fs\n", res.Times.Launch)
	if opts.UseSBRS {
		fmt.Fprintf(w, "  sbrs     %8.3fs (relocated %d bytes)\n", res.Times.SBRS, res.SBRSReport.Bytes)
	}
	fmt.Fprintf(w, "  sample   %8.2fs\n", res.Times.Sample)
	fmt.Fprintf(w, "  merge    %8.4fs (front end received %d bytes, wire format v%d)\n",
		res.Times.Merge, res.FrontEndInBytes, res.WireVersion)
	if res.Times.Remap > 0 {
		fmt.Fprintf(w, "  remap    %8.3fs\n", res.Times.Remap)
	}
	if res.StreamRounds > 0 {
		fmt.Fprintf(w, "  stream   %8.4fs (%d rounds)\n", res.Times.Stream, res.StreamRounds)
	}
	fmt.Fprintf(w, "  total    %8.2fs\n", res.Times.Total())
	if res.Times.SampleSteady > 0 {
		fmt.Fprintf(w, "  steady-state rounds: %.4fs/round (%.4fs walk)\n",
			res.Times.SteadyRound(), res.Times.SampleSteady)
	}

	if hits, misses := res.AliasDecodeHits, res.AliasDecodeMisses; hits+misses > 0 {
		fmt.Fprintf(w, "\nmerge codec: %d label decodes, %.1f%% zero-copy (%d aliased, %d copied)\n",
			hits+misses, 100*float64(hits)/float64(hits+misses), hits, misses)
	}
	if ls := res.LabelStats; ls.Labels() > 0 {
		fmt.Fprintf(w, "v3 label containers: %d run (%s), %d array (%s), %d dense (%s)\n",
			ls.Run, byteCount(ls.RunBytes), ls.Array, byteCount(ls.ArrayBytes), ls.Dense, byteCount(ls.DenseBytes))
	}

	if ss := res.SampleStats; ss.SampledStacks > 0 {
		pcRate := 0.0
		if ss.PCsResolved > 0 {
			pcRate = 1 - float64(ss.PCCacheMisses)/float64(ss.PCsResolved)
		}
		fmt.Fprintf(w, "\nsampling engine: %d stacks walked, %.3f resolver calls per stack "+
			"(%d PCs resolved, %.1f%% cache hits)",
			ss.SampledStacks, float64(ss.PCsResolved)/float64(ss.SampledStacks), ss.PCsResolved, 100*pcRate)
		if ss.SlotWaitNanos > 0 {
			fmt.Fprintf(w, ", %.3fms blocked on walk slots", float64(ss.SlotWaitNanos)/1e6)
		}
		fmt.Fprintln(w)
		if ss.Snapshots > 0 {
			fmt.Fprintf(w, "snapshots: %d sealed\n", ss.Snapshots)
		}
	}

	if res.Telemetry != nil {
		printTelemetry(w, res.Telemetry)
	}

	if res.StreamRounds > 0 {
		fmt.Fprintf(w, "\nstreaming: %d rounds (%d delta, %d whole)", res.StreamRounds,
			res.StreamDeltaRounds, res.StreamRounds-res.StreamDeltaRounds)
		if res.StreamDeltaRounds > 0 {
			fmt.Fprintf(w, "; delta ingress %s/round (%d nodes folded)",
				byteCount(res.StreamDeltaBytes/int64(res.StreamDeltaRounds)), res.StreamDeltaNodes)
		}
		if whole := res.StreamRounds - res.StreamDeltaRounds; whole > 0 {
			fmt.Fprintf(w, "; whole-tree ingress %s/round", byteCount(res.StreamWholeBytes/int64(whole)))
		}
		fmt.Fprintln(w)
		if res.StreamMixedRetries > 0 {
			fmt.Fprintf(w, "  %d mixed round(s) re-gathered as whole trees\n", res.StreamMixedRetries)
		}
		for _, ev := range res.StreamEvents {
			fmt.Fprintf(w, "  class transition at round %d: %d -> %d classes\n",
				ev.Round, ev.PrevClasses, ev.Classes)
		}
		if capture != nil {
			if len(res.FlightDumps) > 0 {
				capture.postmortem(renderFlightDumps(res.FlightDumps))
			}
			records, captured := capture.records, capture.bytes
			if err := capture.close(); err != nil {
				return fmt.Errorf("stream capture: %w", err)
			}
			capture = nil
			fmt.Fprintf(w, "  recorded %d rounds (%s) to %s\n", records, byteCount(captured), *streamSave)
		}
	}

	if *progress {
		// A fresh Tool: each carries single-use virtual-clock state.
		ptool, err := core.New(opts)
		if err != nil {
			return err
		}
		pr, err := ptool.ProgressCheck()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nprogress check: %d task(s) with frozen stacks: %v\n",
			pr.Stuck.Count(), pr.Stuck.Members())
	}

	fmt.Fprintf(w, "\nequivalence classes (%d):\n", len(res.Classes))
	for i, c := range res.Classes {
		if i >= *maxClasses {
			fmt.Fprintf(w, "  … %d more\n", len(res.Classes)-i)
			break
		}
		fmt.Fprintf(w, "  %s\n", c)
	}

	if *showTree {
		fmt.Fprintf(w, "\n3D trace/space/time prefix tree:\n%s", res.Tree3D)
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		defer f.Close()
		title := fmt.Sprintf("STAT 3D call graph prefix tree (%d tasks)", *tasks)
		if err := res.Tree3D.WriteDOT(f, title); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", *dotPath)
	}
	if *savePath != "" {
		// Save in the session's negotiated format; stat-view dispatches on
		// the magic, so captures of any version (v1 from earlier builds
		// included) open alike.
		data, err := res.Tree3D.MarshalBinaryV(res.WireVersion)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*savePath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "saved merged tree to %s (%d bytes, wire format v%d)\n", *savePath, len(data), res.WireVersion)
	}
	return nil
}
