package core

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"stat/internal/machine"
	"stat/internal/proto"
	"stat/internal/tbon"
	"stat/internal/telemetry"
	"stat/internal/topology"
	"stat/internal/trace"
)

// TestTelemetryDifferentialAcrossTopologies is the acceptance differential
// for the observability plane: telemetry must be a pure observer. For
// every topology shape × representation × wire version × reduction
// engine, the root result packet of a telemetry-on reduction, after
// popping the telemetry section, must be byte-identical (modulo the
// header's size field, which counts the section) to the telemetry-off
// packet. The popped section must decode into a frame whose
// leaf/filter census matches the topology exactly, and whose MergedBytes
// reconciles with the engine's traffic counters: it sums the tree bodies
// the interior nodes emitted, each node's tbon.Stats.NodeOutBytes less
// its packet header and telemetry section.
func TestTelemetryDifferentialAcrossTopologies(t *testing.T) {
	topos := []struct {
		name  string
		build func() (*topology.Tree, error)
	}{
		{"flat", func() (*topology.Tree, error) { return topology.Flat(9) }},
		{"chain", func() (*topology.Tree, error) { return topology.Chain(5) }},
		{"ragged", func() (*topology.Tree, error) { return topology.Ragged(42, 3, 5) }},
		{"balanced", func() (*topology.Tree, error) { return topology.Balanced(2, 16) }},
	}
	engines := allEngines
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		for _, version := range []uint8{2, 3} {
			if mode == Original && version > 2 {
				continue // original mode tops out at v2 on the wire
			}
			for _, tc := range topos {
				topo, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				nLeaves := topo.NumLeaves()
				tasks := 8 * nLeaves

				run := func(telem bool, engine testEngine) ([]byte, *tbon.Stats) {
					tool, err := New(Options{
						Machine:        machine.Atlas(),
						Tasks:          tasks,
						Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
						BitVec:         mode,
						Samples:        3,
						ThreadsPerTask: 2,
						WireVersion:    version,
						Telemetry:      telem,
					})
					if err != nil {
						t.Fatal(err)
					}
					daemons := make([]*daemon, nLeaves)
					for i := range daemons {
						daemons[i] = &daemon{
							leaf: i, tool: tool, state: stateSampled,
							samples: 3, threads: 2, epoch: 3, wireVersion: version,
						}
					}
					greq := proto.GatherRequest{Which: proto.TreeBoth, Telemetry: telem}
					net := tbon.New(topo)
					leaf := func(i int) (*tbon.Lease, error) {
						return daemons[i].gatherPacket(greq)
					}
					out, stats, err := net.ReduceNodeLeasedWith(engine.reduceOpts(), leaf, tool.merge.resultFilter(telem))
					if err != nil {
						t.Fatalf("%v/v%d/%s/%v: %v", mode, version, tc.name, engine, err)
					}
					return out, stats
				}

				for _, engine := range engines {
					plain, _ := run(false, engine)
					instr, stats := run(true, engine)
					pp, err := proto.Decode(plain)
					if err != nil {
						t.Fatal(err)
					}
					pi, err := proto.Decode(instr)
					if err != nil {
						t.Fatal(err)
					}
					tree, sect, err := proto.SplitTelemetrySection(pi.Payload)
					if err != nil {
						t.Fatalf("%v/v%d/%s/%v: telemetry-on root packet: %v", mode, version, tc.name, engine, err)
					}
					if !bytes.Equal(pp.Payload, tree) {
						t.Errorf("%v/v%d/%s/%v: result trees differ with telemetry on", mode, version, tc.name, engine)
					}
					var f telemetry.Frame
					if !telemetry.DecodeFrameInto(&f, sect) {
						t.Fatalf("%v/v%d/%s/%v: malformed telemetry section", mode, version, tc.name, engine)
					}
					if int(f.Daemons) != nLeaves {
						t.Errorf("%v/v%d/%s/%v: frame counts %d daemons, topology has %d leaves",
							mode, version, tc.name, engine, f.Daemons, nLeaves)
					}
					// Filters counts filter *calls*, and a node folds in one
					// call per arrived prefix — pairwise when the gate has no
					// room to defer — so the census is a lower bound: at least
					// one call per interior node (root included).
					minFilters := topo.CommProcesses() + 1
					if int(f.Filters) < minFilters {
						t.Errorf("%v/v%d/%s/%v: frame counts %d filter calls, topology has %d interior nodes",
							mode, version, tc.name, engine, f.Filters, minFilters)
					}
					if f.Round != 3 {
						t.Errorf("%v/v%d/%s/%v: frame round = %d, want 3", mode, version, tc.name, engine, f.Round)
					}
					if got := f.Spans[telemetry.SpanWalk].Count; got != int64(nLeaves) {
						t.Errorf("%v/v%d/%s/%v: %d walk spans, want %d", mode, version, tc.name, engine, got, nLeaves)
					}
					if f.PayloadBytes <= 0 {
						t.Errorf("%v/v%d/%s/%v: PayloadBytes = %d", mode, version, tc.name, engine, f.PayloadBytes)
					}
					if minFilters > 0 && f.MergedBytes <= 0 {
						t.Errorf("%v/v%d/%s/%v: MergedBytes = %d with interior filters", mode, version, tc.name, engine, f.MergedBytes)
					}
					framing := int64(proto.HeaderSize + proto.TelemetrySectionLen(telemetry.EncodedFrameSize))
					var emitted int64
					for _, level := range topo.Levels {
						for _, nd := range level {
							if !nd.IsLeaf() {
								emitted += stats.NodeOutBytes[nd.ID] - framing
							}
						}
					}
					if f.MergedBytes != emitted {
						t.Errorf("%v/v%d/%s/%v: MergedBytes = %d, interior nodes emitted %d body bytes",
							mode, version, tc.name, engine, f.MergedBytes, emitted)
					}
				}
			}
		}
	}
}

// TestTelemetryFullSessionDifferential runs complete sessions with the
// plane on and off and pins the final trees byte-identical; the
// instrumented run's Result.Telemetry must carry a full-fleet frame with
// the front-end-only reduce-wait span folded in, and the session
// registry must have published it.
func TestTelemetryFullSessionDifferential(t *testing.T) {
	for _, mode := range []BitVecMode{Original, Hierarchical} {
		base := Options{
			Machine:        machine.Atlas(),
			Tasks:          96,
			Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
			BitVec:         mode,
			Samples:        4,
			ThreadsPerTask: 2,
		}
		results := make([]*Result, 2)
		var instrTool *Tool
		for i, telem := range []bool{false, true} {
			opts := base
			opts.Telemetry = telem
			tool, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if telem {
				instrTool = tool
			}
			if results[i], err = tool.MeasureMerge(); err != nil {
				t.Fatal(err)
			}
			if results[i].MergeErr != nil {
				t.Fatal(results[i].MergeErr)
			}
		}
		for _, pair := range []struct {
			name    string
			off, on *trace.Tree
		}{
			{"2D", results[0].Tree2D, results[1].Tree2D},
			{"3D", results[0].Tree3D, results[1].Tree3D},
		} {
			eo, err := pair.off.MarshalBinaryV(trace.WireV2)
			if err != nil {
				t.Fatal(err)
			}
			ei, err := pair.on.MarshalBinaryV(trace.WireV2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(eo, ei) {
				t.Errorf("%v/%s: tree differs with telemetry on", mode, pair.name)
			}
		}
		if results[0].Telemetry != nil {
			t.Errorf("%v: telemetry-off run carries a frame", mode)
		}
		f := results[1].Telemetry
		if f == nil {
			t.Fatalf("%v: telemetry-on run carries no frame", mode)
		}
		daemons := instrTool.Daemons()
		if int(f.Daemons) != daemons {
			t.Errorf("%v: frame counts %d daemons, tool has %d", mode, f.Daemons, daemons)
		}
		if f.Spans[telemetry.SpanWalk].Count != int64(daemons) {
			t.Errorf("%v: %d walk spans, want %d", mode, f.Spans[telemetry.SpanWalk].Count, daemons)
		}
		if f.Spans[telemetry.SpanReduceWait].Count == 0 {
			t.Errorf("%v: reduce-wait span never folded into the root frame", mode)
		}
		// The same frame must have reached the session registry.
		reg := instrTool.TelemetryRegistry()
		if reg == nil {
			t.Fatalf("%v: instrumented tool has no registry", mode)
		}
		var expo bytes.Buffer
		if err := reg.WritePrometheus(&expo); err != nil {
			t.Fatal(err)
		}
		for _, metric := range []string{"stat_gather_rounds_total", "stat_span_walk_total", "stat_leaf_payload_bytes_total"} {
			if !bytes.Contains(expo.Bytes(), []byte(metric)) {
				t.Errorf("%v: exposition lacks %s", mode, metric)
			}
		}
		// The pool sizes are gauges, and the slot-wait counter carries the
		// sampling engine's own total (no walk runs after the gather).
		procs := int64(runtime.GOMAXPROCS(0))
		for _, m := range []struct {
			name string
			want int64
		}{
			{"stat_gomaxprocs", procs},
			{"stat_sample_walk_slots", procs},
			{"stat_reduce_workers", min(procs, int64(daemons))},
			{"stat_sample_slot_wait_ns_total", results[1].SampleStats.SlotWaitNanos},
		} {
			if got, ok := exposedValue(expo.String(), m.name); !ok || got != m.want {
				t.Errorf("%v: %s = %d (exposed %v), want %d", mode, m.name, got, ok, m.want)
			}
		}
		// And the daemons' flight recorders hold the round's spans.
		tail := instrTool.FlightTail(0, make([]telemetry.Span, 16))
		if len(tail) == 0 {
			t.Errorf("%v: daemon 0 flight recorder is empty after a session", mode)
		}
	}
}

// exposedValue reads the sample value of an unlabeled metric from a
// Prometheus text exposition.
func exposedValue(expo, name string) (int64, bool) {
	for _, line := range strings.Split(expo, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// buildTelemetryChildren wraps buildFilterChildren's payloads into
// MsgResult packets carrying leaf telemetry sections, the exact input an
// interior resultFilter sees on an instrumented stream.
func buildTelemetryChildren(t testing.TB, version uint8) []*tbon.Lease {
	t.Helper()
	inner := buildFilterChildren(t, true, version)
	children := make([]*tbon.Lease, len(inner))
	for i, b := range inner {
		var f telemetry.Frame
		f.Daemons = 1
		f.Round = 3
		f.Observe(telemetry.SpanWalk, int64(1000*(i+1)))
		f.Observe(telemetry.SpanSeal, 500)
		f.Observe(telemetry.SpanEncode, 700)
		f.Observe(telemetry.SpanSend, 90)
		f.PayloadBytes = int64(b.Len())
		body := proto.AppendTelemetrySection(append([]byte(nil), b.Bytes()...), f.AppendTo(nil))
		p := proto.Packet{Stream: proto.DataStream, Type: proto.MsgResult, Version: version, Payload: body}
		children[i] = tbon.NewLease(p.Encode(), nil)
		b.Release()
	}
	return children
}

// TestResultFilterTelemetryZeroAllocs extends the filter-cycle
// allocation guard to the instrumented path: stripping, decoding, and
// folding child telemetry frames, plus re-encoding the aggregate onto
// the output, must stay within the same small fixed budget as the bare
// cycle — the aggregate lives in the pooled accumulator (foldAcc) and
// both the section scratch and the output reservation recycle.
func TestResultFilterTelemetryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	filter := newAllocTool(t, Hierarchical).merge.resultFilter(true)
	children := buildTelemetryChildren(t, trace.WireV2)
	cycle := func() {
		out, err := foldEmit(filter, children, 1)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("instrumented result-filter cycle allocates %v per op, want 0", n)
	}
	for _, c := range children {
		c.Release()
	}
}

// TestGatherPacketTelemetryZeroAllocs extends the leaf-side guard: a
// daemon answering an instrumented gather — walk timing, flight-recorder
// writes, frame encode, section append — must stay allocation-free at
// steady state, same as the bare packet cycle.
func TestGatherPacketTelemetryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	tool, err := New(Options{
		Machine:        machine.Atlas(),
		Tasks:          96,
		Topology:       topology.Spec{Kind: topology.KindBalanced, Depth: 2},
		BitVec:         Hierarchical,
		Samples:        5,
		ThreadsPerTask: 2,
		SampleWorkers:  1,
		Telemetry:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{leaf: 0, tool: tool, state: stateSampled, samples: 5, threads: 2, epoch: 5, wireVersion: 2}
	req := proto.GatherRequest{Which: proto.TreeBoth, Telemetry: true}
	cycle := func() {
		lease, err := d.gatherPacket(req)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("instrumented gather packet cycle allocates %v per round, want 0", n)
	}
}

// benchTelemetryChildren builds an interior node's inbound packets at a
// realistic scale — fan-in of 8 children, each carrying two
// 128-task-wide trees (a 1K-task job's first join, small for this
// paper) — optionally with a telemetry section appended, for measuring
// the plane's relative overhead on a filter cycle whose merge work looks
// like a production gather rather than the near-empty fixtures the
// allocation guards use. The frame cost per child is fixed, so the
// plane's relative overhead only shrinks from here as jobs grow.
func benchTelemetryChildren(b *testing.B, telem bool, version uint8) []*tbon.Lease {
	b.Helper()
	const fanIn, width = 8, 128
	children := make([]*tbon.Lease, fanIn)
	for ci := range children {
		t2, t3 := trace.NewTree(width), trace.NewTree(width)
		// A realistic call-prefix tree holds dozens of distinct paths, not
		// the two or three the tiny guards use; spread tasks over eight
		// leaf frames under a few shared prefixes so the merged node count
		// (which is what the filter's decode/merge/encode actually pays
		// for) looks like a production gather.
		phases := []string{"solve", "exchange", "io", "checkpoint"}
		leafFns := []string{"mpi_wait", "barrier", "memcpy", "compress",
			"pack", "unpack", "poll", "write"}
		for task := 0; task < width; task++ {
			phase := phases[task%len(phases)]
			fn := leafFns[task%len(leafFns)]
			fn2 := leafFns[(task/len(phases))%len(leafFns)]
			t2.AddStack(task, "main", phase, fn)
			t2.AddStack(task, "main", phase, "progress", fn)
			t2.AddStack(task, "main", phase, "progress", fn2, "yield")
			t2.AddStack(task, "main", phase, fn2, "memset")
			t3.AddStack(task, "main", phase, "progress", fn, "spin")
			t3.AddStack(task, "main", phase, leafFns[(task+3)%len(leafFns)])
			t3.AddStack(task, "main", phase, "progress", fn2)
			t3.AddStack(task, "main", phase, fn2, "flush", "write")
		}
		body, err := encodeTrees(version, t2, t3)
		if err != nil {
			b.Fatal(err)
		}
		t2.Release()
		t3.Release()
		if telem {
			var f telemetry.Frame
			f.Daemons = 1
			f.Round = 3
			f.Observe(telemetry.SpanWalk, int64(1000*(ci+1)))
			f.Observe(telemetry.SpanSeal, 500)
			f.Observe(telemetry.SpanEncode, 700)
			f.Observe(telemetry.SpanSend, 90)
			f.PayloadBytes = int64(len(body))
			body = proto.AppendTelemetrySection(body, f.AppendTo(nil))
		}
		p := proto.Packet{Stream: proto.DataStream, Type: proto.MsgResult, Version: version, Payload: body}
		children[ci] = tbon.NewLease(p.Encode(), nil)
	}
	return children
}

// BenchmarkTelemetryOverhead is the acceptance benchmark for the plane's
// hot-path cost: the instrumented interior filter cycle (strip + decode
// + fold + re-append, on section-carrying children) against the bare one
// on the same tree payloads, at a production-shaped fan-in and tree
// width (the per-child frame cost is fixed, so it must amortize against
// real merge work, not the tiny allocation-guard fixtures). Gated in CI
// by cmd/benchgate against the committed baseline; the on/off legs must
// stay within a few percent of each other and the on leg must report
// 0 allocs/op.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, tc := range []struct {
		name  string
		telem bool
	}{
		{"off", false},
		{"on", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tool, err := New(Options{
				Machine:  machine.Atlas(),
				Tasks:    1024,
				Topology: topology.Spec{Kind: topology.KindBalanced, Depth: 2},
				BitVec:   Hierarchical,
				Samples:  3,
			})
			if err != nil {
				b.Fatal(err)
			}
			filter := tool.merge.resultFilter(tc.telem)
			children := benchTelemetryChildren(b, tc.telem, trace.WireV2)
			var total int64
			for _, c := range children {
				total += int64(c.Len())
			}
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := foldEmit(filter, children, len(children))
				if err != nil {
					b.Fatal(err)
				}
				out.Release()
			}
			b.StopTimer()
			for _, c := range children {
				c.Release()
			}
		})
	}
}
