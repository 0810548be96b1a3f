package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"stat/internal/core"
	"stat/internal/proto"
	"stat/internal/telemetry"
	"stat/internal/trace"
)

// gcDelta is the Go runtime's allocation and collection activity over
// one session.
type gcDelta struct {
	allocBytes uint64
	cycles     uint32
	pauseNs    uint64
}

func readGC() gcDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcDelta{allocBytes: ms.TotalAlloc, cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

func (a gcDelta) sub(b gcDelta) gcDelta {
	return gcDelta{allocBytes: a.allocBytes - b.allocBytes, cycles: a.cycles - b.cycles, pauseNs: a.pauseNs - b.pauseNs}
}

// checkFrame checks a traced session's cold-round fleet frame against
// what the program reports on its other paths: every daemon folded in,
// and the frame's leaf payload bytes equal to the leaf out-bytes tbon
// counts once each packet's header and telemetry trailer are added.
func checkFrame(res *core.Result) error {
	f := res.Telemetry
	if f == nil {
		return errors.New("traced session returned no telemetry frame")
	}
	if int(f.Daemons) != res.Daemons {
		return fmt.Errorf("frame covers %d daemons, session has %d", f.Daemons, res.Daemons)
	}
	var leafOut int64
	for _, leaf := range res.Topo.Leaves {
		leafOut += res.MergeStats.NodeOutBytes[leaf.ID]
	}
	framing := int64(proto.HeaderSizeV(res.WireVersion) + proto.TelemetrySectionLen(telemetry.EncodedFrameSize))
	if want := f.PayloadBytes + int64(f.Daemons)*framing; leafOut != want {
		return fmt.Errorf("tbon counts %d leaf out-bytes, frame payload %d plus %d×%d framing is %d",
			leafOut, f.PayloadBytes, f.Daemons, framing, want)
	}
	return nil
}

// layerSample is one traced session's per-layer numbers.
type layerSample map[string]float64

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerTable lists the per-layer metrics in report order.
var layerTable = []layerMetric{
	{"sample.walk_s", "s"},
	{"sample.walk_max_s", "s"},
	{"sample.seal_s", "s"},
	{"sample.stacks_walked", "count"},
	{"sample.useful_walk_ratio", "ratio"},
	{"sample.memo_hit_ratio", "ratio"},
	{"sample.memo_entries", "count"},
	{"stackwalk.pc_lookups", "count"},
	{"stackwalk.pc_miss_ratio", "ratio"},
	{"core.encode_s", "s"},
	{"core.send_s", "s"},
	{"core.fold_s", "s"},
	{"core.classes_s", "s"},
	{"core.delta_round_ratio", "ratio"},
	{"core.mixed_retries", "count"},
	{"core.delta_nodes_per_round", "count"},
	{"tbon.reduce_wait_s", "s"},
	{"tbon.leaf_payload_mb", "MB"},
	{"tbon.merged_mb", "MB"},
	{"tbon.max_leaf_payload_kb", "KB"},
	{"tbon.packets", "count"},
	{"tbon.peak_inflight_mb", "MB"},
	{"tbon.live_leases_max", "count"},
	{"tbon.fanin_max", "count"},
	{"trace.merge_s", "s"},
	{"trace.alias_hit_ratio", "ratio"},
	{"trace.nodes_2d", "count"},
	{"trace.nodes_3d", "count"},
	{"trace.encode_result_s", "s"},
	{"trace.decode_result_s", "s"},
	{"bitvec.labels_run", "count"},
	{"bitvec.labels_array", "count"},
	{"bitvec.labels_dense", "count"},
	{"bitvec.label_wire_kb", "KB"},
	{"go.peak_rss_mb", "MB"},
	{"go.alloc_mb_per_round", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"telemetry.overhead_s", "s"},
	{"model.total_s", "s"},
	{"model.merge_s", "s"},
	{"model.steady_round_s", "s"},
	{"model.stream_s", "s"},
}

// layerMetrics reports the median of each per-layer number over the
// traced sessions, and the tracing overhead: the traced sessions' median
// time to first tree minus the untraced sessions'.
func (b *bench) layerMetrics(untraced, traced []*session) ([]metric, error) {
	var firstU, firstT []float64
	for _, s := range untraced {
		firstU = append(firstU, s.firstTree.Seconds())
	}
	for _, s := range traced {
		firstT = append(firstT, s.firstTree.Seconds())
	}
	fmt.Fprintf(b.out, "%d untraced and %d traced sessions\n", len(untraced), len(traced))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out := make([]metric, 0, len(layerTable))
	for _, m := range layerTable {
		var v float64
		switch m.name {
		case "telemetry.overhead_s":
			v = median(firstT) - median(firstU)
		case "go.peak_rss_mb":
			v = rss
		default:
			vals := make([]float64, len(traced))
			for i, s := range traced {
				val, ok := s.layers[m.name]
				if !ok {
					return nil, fmt.Errorf("per-layer metric %s not computed", m.name)
				}
				vals[i] = val
			}
			v = median(vals)
		}
		out = append(out, metric{m.name, m.unit, v})
	}
	return out, nil
}

// layers computes one traced session's per-layer numbers. Span sums are
// per round: the cold round on one-shots, the mean over the streamed
// rounds on monitors (the round the steady metric times). The sampler,
// tbon and label counters are the ones Result reports.
func (b *bench) layers(s *session, n int) (layerSample, error) {
	w := b.cfg.workload
	res := s.res
	frames := s.frames
	if w.monitor() {
		if len(frames) != w.rounds+1 {
			return nil, fmt.Errorf("traced monitor session observed %d frames, want %d", len(frames), w.rounds+1)
		}
		frames = frames[1:]
	}
	if len(frames) == 0 {
		return nil, errors.New("traced session observed no telemetry frame")
	}
	perRound := func(get func(f *telemetry.Frame) int64) float64 {
		var sum int64
		for i := range frames {
			sum += get(&frames[i])
		}
		return float64(sum) / float64(len(frames))
	}
	spanSum := func(k telemetry.SpanKind) float64 {
		return perRound(func(f *telemetry.Frame) int64 { return f.Spans[k].SumNs }) / 1e9
	}
	maxOf := func(get func(f *telemetry.Frame) int64) float64 {
		var m int64
		for i := range frames {
			m = max(m, get(&frames[i]))
		}
		return float64(m)
	}
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}

	ss := res.SampleStats
	rounds := int64(1 + res.StreamRounds)
	asked := int64(res.Tasks) * int64(b.opts.Samples) * rounds
	ls := layerSample{
		"sample.walk_s":            spanSum(telemetry.SpanWalk),
		"sample.walk_max_s":        perRound(func(f *telemetry.Frame) int64 { return f.Spans[telemetry.SpanWalk].MaxNs }) / 1e9,
		"sample.seal_s":            spanSum(telemetry.SpanSeal),
		"sample.stacks_walked":     float64(ss.SampledStacks),
		"sample.useful_walk_ratio": ratio(asked, ss.SampledStacks),
		"sample.memo_hit_ratio":    ratio(ss.StackMemoHits, ss.SampledStacks),
		"sample.memo_entries":      float64(ss.DistinctStacks),
		"stackwalk.pc_lookups":     float64(ss.PCsResolved),
		"stackwalk.pc_miss_ratio":  ratio(ss.PCCacheMisses, ss.PCsResolved),

		"core.encode_s":              spanSum(telemetry.SpanEncode),
		"core.send_s":                spanSum(telemetry.SpanSend),
		"core.fold_s":                spanSum(telemetry.SpanFold),
		"core.delta_round_ratio":     ratio(int64(res.StreamDeltaRounds), int64(res.StreamRounds)),
		"core.mixed_retries":         float64(res.StreamMixedRetries),
		"core.delta_nodes_per_round": ratio(res.StreamDeltaNodes, int64(res.StreamDeltaRounds)),

		"tbon.reduce_wait_s":       spanSum(telemetry.SpanReduceWait),
		"tbon.leaf_payload_mb":     perRound(func(f *telemetry.Frame) int64 { return f.PayloadBytes }) / 1e6,
		"tbon.merged_mb":           perRound(func(f *telemetry.Frame) int64 { return f.MergedBytes }) / 1e6,
		"tbon.max_leaf_payload_kb": float64(res.MaxLeafPayloadBytes) / 1e3,
		"tbon.packets":             float64(res.MergeStats.Packets),
		"tbon.peak_inflight_mb":    float64(res.MergeStats.PeakInFlightBytes) / 1e6,
		"tbon.live_leases_max":     maxOf(func(f *telemetry.Frame) int64 { return f.LiveLeases }),
		"tbon.fanin_max":           maxOf(func(f *telemetry.Frame) int64 { return f.QueueDepth }),

		"trace.merge_s":         spanSum(telemetry.SpanMerge),
		"trace.alias_hit_ratio": ratio(res.AliasDecodeHits, res.AliasDecodeHits+res.AliasDecodeMisses),
		"trace.nodes_2d":        float64(res.Tree2D.NodeCount()),
		"trace.nodes_3d":        float64(res.Tree3D.NodeCount()),

		"bitvec.labels_run":    float64(res.LabelStats.Run),
		"bitvec.labels_array":  float64(res.LabelStats.Array),
		"bitvec.labels_dense":  float64(res.LabelStats.Dense),
		"bitvec.label_wire_kb": float64(res.LabelStats.Bytes()) / 1e3,

		"go.alloc_mb_per_round": float64(s.gc.allocBytes) / float64(rounds) / 1e6,
		"go.gc_cycles":          float64(s.gc.cycles),
		"go.gc_pause_s":         float64(s.gc.pauseNs) / 1e9,

		"model.total_s":        res.Times.Total(),
		"model.merge_s":        res.Times.Merge,
		"model.steady_round_s": res.Times.SteadyRound(),
		"model.stream_s":       0,
	}
	if res.StreamRounds > 0 {
		ls["model.stream_s"] = res.Times.Stream / float64(res.StreamRounds)
	}

	// Calls into public layer functions, timed from outside.
	id := b.log.begin("EquivalenceClasses", 0, n)
	start := time.Now()
	classes := res.Tree2D.EquivalenceClasses()
	ls["core.classes_s"] = time.Since(start).Seconds()
	b.log.end(id)
	if len(classes) == 0 {
		return nil, errors.New("no equivalence classes")
	}

	id = b.log.begin("MarshalBinaryV", 0, n)
	start = time.Now()
	enc2, err2 := res.Tree2D.MarshalBinaryV(res.WireVersion)
	enc3, err3 := res.Tree3D.MarshalBinaryV(res.WireVersion)
	ls["trace.encode_result_s"] = time.Since(start).Seconds()
	b.log.end(id)
	if err := firstErr(err2, err3); err != nil {
		return nil, err
	}
	id = b.log.begin("UnmarshalBinary", 0, n)
	start = time.Now()
	dec2, err2 := trace.UnmarshalBinary(enc2)
	dec3, err3 := trace.UnmarshalBinary(enc3)
	ls["trace.decode_result_s"] = time.Since(start).Seconds()
	b.log.end(id)
	if err := firstErr(err2, err3); err != nil {
		return nil, err
	}
	b.check(firstErr(
		wrap("v"+fmt.Sprint(res.WireVersion)+" round trip 2D", sameTrees(dec2, res.Tree2D)),
		wrap("v"+fmt.Sprint(res.WireVersion)+" round trip 3D", sameTrees(dec3, res.Tree3D))))
	return ls, nil
}
