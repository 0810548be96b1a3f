package core

import (
	"runtime"
	"sync/atomic"

	"stat/internal/bitvec"
	"stat/internal/telemetry"
)

// The tool's observability plane (Options.Telemetry). Three surfaces,
// all fed by the same per-round instrumentation:
//
//   - A telemetry.Registry of session-lifetime counters, gauges, and
//     histograms, exposed as Prometheus text by the CLI's -debug-addr
//     endpoint. Handles are registered once here and updated lock-free.
//
//   - Per-daemon flight recorders (telemetry.Recorder): each daemon's
//     gatherPacket records its walk/seal/encode/send spans into its
//     leaf's ring. A degraded gather dumps the implicated daemons'
//     tails into Result.FlightDumps — the run carries its own
//     post-mortem.
//
//   - Per-round fleet frames (telemetry.Frame): leaves append one to
//     each gather reply, interior filters fold children's frames and
//     add their own merge/fold spans, and the front end pops the folded
//     frame off the root packet (Result.Telemetry, and the per-round
//     stream hook).
//
// Everything on the gather path must stay off the allocation budget:
// daemons and filters write into per-daemon / pooled scratch
// (daemon.telemBuf, and the aggregate and telemBuf of the pooled fold
// accumulator, foldAcc), and the filter-cycle zero-alloc guards run with
// telemetry enabled.

// flightRingSize is each daemon's flight-recorder capacity in spans. A
// round records four leaf spans, so the ring holds the last ~64 rounds.
const flightRingSize = 256

// flightTailSpans bounds how many spans a flight dump copies per daemon.
const flightTailSpans = 32

// toolTelemetry is the Tool's telemetry state; nil when
// Options.Telemetry is off, so every hot-path hook is one nil check.
type toolTelemetry struct {
	reg       *telemetry.Registry
	recorders []*telemetry.Recorder

	rounds       *telemetry.Counter
	payloadBytes *telemetry.Counter
	mergedBytes  *telemetry.Counter
	spanNs       [telemetry.NumSpanKinds]*telemetry.Counter
	spanCount    [telemetry.NumSpanKinds]*telemetry.Counter
	walkHist     *telemetry.Histogram
	waitHist     *telemetry.Histogram
	liveLeases   *telemetry.Gauge
	fanin        *telemetry.Gauge
	slotWait     *telemetry.Counter

	// Front-end reduce-wait aggregation, fed concurrently by the
	// reduction engine's WaitObserver and drained into the round's
	// frame by takeWait. waitMin holds -1 when empty.
	waitCount atomic.Int64
	waitSum   atomic.Int64
	waitMin   atomic.Int64
	waitMax   atomic.Int64
	// waitFn is the bound observeWait method value, computed once so
	// installing the observer per gather captures nothing.
	waitFn func(int64)
}

// newToolTelemetry builds the plane for a tool with the given daemon
// count, walk-slot count and reduction worker count.
func newToolTelemetry(daemons, walkSlots, reduceWorkers int) *toolTelemetry {
	tt := &toolTelemetry{reg: telemetry.NewRegistry()}
	tt.recorders = make([]*telemetry.Recorder, daemons)
	for i := range tt.recorders {
		tt.recorders[i] = telemetry.NewRecorder(flightRingSize)
	}
	tt.rounds = tt.reg.Counter("stat_gather_rounds_total",
		"Gather rounds whose fleet telemetry frame reached the front end.")
	tt.payloadBytes = tt.reg.Counter("stat_leaf_payload_bytes_total",
		"Tree-body bytes emitted by daemons across all rounds.")
	tt.mergedBytes = tt.reg.Counter("stat_merged_bytes_total",
		"Tree-body bytes produced by interior merge filters across all rounds.")
	for k := 0; k < telemetry.NumSpanKinds; k++ {
		name := spanMetricName(telemetry.SpanKind(k))
		tt.spanNs[k] = tt.reg.Counter("stat_span_"+name+"_ns_total",
			"Summed fleet duration of "+telemetry.SpanKind(k).String()+" spans.")
		tt.spanCount[k] = tt.reg.Counter("stat_span_"+name+"_total",
			"Fleet count of "+telemetry.SpanKind(k).String()+" spans.")
	}
	tt.walkHist = tt.reg.Histogram("stat_walk_ns",
		"Distribution of per-daemon stack-walk durations (ns).")
	tt.waitHist = tt.reg.Histogram("stat_reduce_wait_ns",
		"Distribution of front-end reduction child-wait times (ns); engine-dependent semantics.")
	tt.liveLeases = tt.reg.Gauge("stat_live_leases_max",
		"High-water process-wide leased-buffer count observed during gathers.")
	tt.fanin = tt.reg.Gauge("stat_filter_fanin_max",
		"Most inputs (fan-in, accumulator included) folded by a single filter call.")
	tt.slotWait = tt.reg.Counter("stat_sample_slot_wait_ns_total",
		"Time daemon walks spent blocked on a walk slot (ns).")
	tt.reg.Gauge("stat_gomaxprocs",
		"GOMAXPROCS of the tool process.").Set(int64(runtime.GOMAXPROCS(0)))
	tt.reg.Gauge("stat_sample_walk_slots",
		"Walk slots of the sampling engine: daemon walks that may run at once.").Set(int64(walkSlots))
	tt.reg.Gauge("stat_reduce_workers",
		"Worker goroutines of each TBON reduction.").Set(int64(reduceWorkers))
	tt.waitMin.Store(-1)
	tt.waitFn = tt.observeWait
	return tt
}

// spanMetricName is the span kind's name with Prometheus-legal runes.
func spanMetricName(k telemetry.SpanKind) string {
	switch k {
	case telemetry.SpanReduceWait:
		return "reduce_wait"
	default:
		return k.String()
	}
}

// observeWait is the reduction engine's WaitObserver: called from
// engine goroutines, so everything here is atomic and allocation-free.
func (tt *toolTelemetry) observeWait(ns int64) {
	tt.waitHist.Observe(ns)
	tt.waitCount.Add(1)
	tt.waitSum.Add(ns)
	for {
		cur := tt.waitMin.Load()
		if (cur >= 0 && ns >= cur) || tt.waitMin.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := tt.waitMax.Load()
		if ns <= cur || tt.waitMax.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// resetWait clears the reduce-wait aggregate before a gather, so an
// errored round's leftovers never bleed into the next frame.
func (tt *toolTelemetry) resetWait() {
	tt.waitCount.Store(0)
	tt.waitSum.Store(0)
	tt.waitMin.Store(-1)
	tt.waitMax.Store(0)
}

// takeWait drains the reduce-wait aggregate into a foldable SpanAgg.
func (tt *toolTelemetry) takeWait() telemetry.SpanAgg {
	count := tt.waitCount.Swap(0)
	sum := tt.waitSum.Swap(0)
	min := tt.waitMin.Swap(-1)
	max := tt.waitMax.Swap(0)
	if count == 0 {
		return telemetry.SpanAgg{}
	}
	if min < 0 {
		min = 0
	}
	return telemetry.SpanAgg{Count: count, SumNs: sum, MinNs: min, MaxNs: max}
}

// publish folds one round's fleet frame into the session-lifetime
// registry metrics, and brings the slot-wait counter up to the sampling
// engine's cumulative slotWaitNs.
func (tt *toolTelemetry) publish(f *telemetry.Frame, slotWaitNs int64) {
	tt.rounds.Add(1)
	tt.payloadBytes.Add(f.PayloadBytes)
	tt.mergedBytes.Add(f.MergedBytes)
	for k := range f.Spans {
		tt.spanNs[k].Add(f.Spans[k].SumNs)
		tt.spanCount[k].Add(f.Spans[k].Count)
	}
	tt.walkHist.MergeBuckets(f.WalkHist[:], f.Spans[telemetry.SpanWalk].SumNs)
	tt.liveLeases.Max(f.LiveLeases)
	tt.fanin.Max(f.QueueDepth)
	tt.slotWait.Add(slotWaitNs - tt.slotWait.Load())
}

// TelemetryRegistry returns the run's metric registry for exposition
// (the CLI's -debug-addr endpoint), or nil when Options.Telemetry is
// off.
func (t *Tool) TelemetryRegistry() *telemetry.Registry {
	if t.telem == nil {
		return nil
	}
	return t.telem.reg
}

// FlightTail copies the most recent spans of one daemon's flight
// recorder into dst (oldest first) and returns the filled prefix; nil
// when telemetry is off or leaf is out of range. Safe to call while a
// session runs.
func (t *Tool) FlightTail(leaf int, dst []telemetry.Span) []telemetry.Span {
	if t.telem == nil || leaf < 0 || leaf >= len(t.telem.recorders) {
		return nil
	}
	return t.telem.recorders[leaf].Snapshot(dst)
}

// FlightDump is one implicated daemon's flight-recorder tail, attached
// to degraded results (Result.FlightDumps) and STSM captures so a
// faulty run carries its own post-mortem.
type FlightDump struct {
	// Leaf is the daemon's leaf index.
	Leaf int
	// Spans is the tail of the daemon's flight recorder at dump time,
	// oldest first. It may be empty (the daemon never produced a
	// payload) and may have sequence gaps (lapped entries).
	Spans []telemetry.Span
}

// flightDumps collects the flight-recorder tails of the daemons a
// degraded gather lost: every daemon with at least one rank outside the
// liveness set. Runs only on the degraded path, so the allocations are
// off the steady-state budget by construction.
func (t *Tool) flightDumps(live *bitvec.Vector) []FlightDump {
	var dumps []FlightDump
	for leaf, ranks := range t.merge.taskMap {
		missing := false
		for _, r := range ranks {
			if !live.Get(r) {
				missing = true
				break
			}
		}
		if !missing {
			continue
		}
		tail := t.telem.recorders[leaf].Snapshot(make([]telemetry.Span, flightTailSpans))
		dumps = append(dumps, FlightDump{Leaf: leaf, Spans: tail})
	}
	return dumps
}
