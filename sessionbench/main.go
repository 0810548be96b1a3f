// Command sessionbench is the repository's end-to-end benchmark: it drives
// real core.Tool sessions through the public API at the paper's scales,
// times set-up, the first merged tree and steady monitoring rounds, checks
// every merged tree against a reference rebuilt from the application's
// stacks, and prints every metric by name with its unit, ending with one
// JSON result line.
//
//	sessionbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics with telemetry off. --trace 1
// alternates untraced and traced sessions of the same workload and
// reports the per-layer metrics. Both record the benchmark's own spans
// and write them to .bench_spans/<workload>.jsonl when the run ends.
// See README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"stat/internal/core"
	"stat/internal/telemetry"
	"stat/internal/trace"
)

// deadline bounds a whole run. A run that reaches it exits non-zero
// without printing a result rather than hang.
const deadline = 170 * time.Second

// spanDir is where a run writes its span file, relative to the directory
// it runs in (the checkout root).
const spanDir = ".bench_spans"

func main() {
	start := time.Now()
	os.Exit(run(start, os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload *workload
	seed     uint64
	seconds  time.Duration
	trace    bool
	tasks    int
	deadline time.Duration
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("sessionbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see README.md)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from traced sessions")
	tasks := fs.Int("scale-tasks", 0, "run the workload's shape at this many tasks instead of its own (for tests)")
	dl := fs.Duration("deadline", deadline, "exit non-zero without a result after this long")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return nil, err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	cfg := &config{
		workload: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, tasks: w.tasks, deadline: *dl,
	}
	if *tasks > 0 {
		cfg.tasks = *tasks
	}
	return cfg, nil
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(start time.Time, args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		return 2
	}
	// The watchdog ends a run that overstays its deadline: non-zero and
	// without a result line. The result is printed only after Stop wins.
	watchdog := time.AfterFunc(cfg.deadline-time.Since(start), func() {
		fmt.Fprintf(stderr, "sessionbench: %s did not finish within %v\n", cfg.workload.name, cfg.deadline)
		os.Exit(3)
	})

	b := &bench{cfg: cfg, out: stdout, log: &spanLog{t0: start}}
	metrics, err := b.run(start)
	if werr := b.log.write(filepath.Join(spanDir, cfg.workload.name+".jsonl")); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		if !watchdog.Stop() {
			select {} // the watchdog is already exiting
		}
		return 1
	}
	res := result{Correct: b.checkErr == nil, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		return 1
	}
	if !watchdog.Stop() {
		select {}
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench is one benchmark run.
type bench struct {
	cfg  *config
	opts core.Options
	out  io.Writer
	log  *spanLog

	attempted, failed int
	// checkErr is the first failed correctness check.
	checkErr error

	// The running session, for the round hooks.
	cur            *session
	curNo, runID   int
	runStart, prev time.Time
}

// onRound is Options.StreamRound: it timestamps each round's arrival at
// the front end. Round 0 ends the session's time to first tree.
func (b *bench) onRound(round int, _ bool, _, _ *trace.Tree) {
	now := time.Now()
	b.log.mark("round "+strconv.Itoa(round), b.runID, b.curNo)
	if round == 0 {
		b.cur.firstTree = now.Sub(b.runStart)
	} else {
		b.cur.steady = append(b.cur.steady, now.Sub(b.prev))
	}
	b.prev = now
}

// onFrame is Options.StreamRoundTelemetry: it keeps a copy of each
// round's fleet frame.
func (b *bench) onFrame(_ int, f *telemetry.Frame) {
	b.cur.frames = append(b.cur.frames, *f)
}

func (b *bench) check(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(b.out, "CHECK FAILED:", err)
	if b.checkErr == nil {
		b.checkErr = err
	}
}

// session is what one Tool session produced.
type session struct {
	res *core.Result
	// firstTree is Tool.Run start to merged trees at the front end.
	firstTree time.Duration
	// steady holds the steady-round times: each streamed round's wall
	// time on monitors, the warm re-run of Tool.Run on one-shots.
	steady []time.Duration
	// frames are the traced session's per-round fleet frames.
	frames []telemetry.Frame
	// gc is the Go runtime's activity over the session's rounds.
	gc gcDelta
	// peakHeap is the most heap any collection during the session found
	// live, including one forced once the last round is in.
	peakHeap uint64
	traced   bool
	// layers are a traced session's per-layer numbers.
	layers layerSample
}

func (b *bench) run(start time.Time) ([]metric, error) {
	cfg, w := b.cfg, b.cfg.workload
	opts, err := w.options(cfg.tasks, sessionSeed(cfg.seed))
	if err != nil {
		return nil, err
	}
	opts.Stream = w.rounds
	b.opts = opts
	if w.monitor() {
		opts.StreamRound = b.onRound
		opts.StreamRoundTelemetry = b.onFrame
	}

	// setup_s: one cold set-up, from process start through core.New.
	id := b.log.begin("core.New", 0, 1)
	tool, err := core.New(opts)
	b.log.end(id)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)
	fmt.Fprintf(b.out, "workload %s: %d tasks, %d daemons, %d streamed rounds, seed %d, GOMAXPROCS %d, nproc %d\n",
		w.name, opts.Tasks, tool.Daemons(), w.rounds, cfg.seed, runtime.GOMAXPROCS(0), runtime.NumCPU())

	var untraced, traced []*session
	// last is the latest session that completed. Only its result is
	// kept, and only until the next session starts, except that an
	// untraced result is held through the traced session compared with it.
	var last *session
	var untracedRes *core.Result
	steal0, total0, stealOK := cpuTicks()
	measureStart := time.Now()
	for n := 1; n == 1 || time.Since(measureStart) < cfg.seconds || (cfg.trace && len(traced) == 0); n++ {
		telem := cfg.trace && len(untraced) > len(traced)
		if last != nil {
			if telem && !last.traced {
				untracedRes = last.res
			}
			last.res = nil
		}
		if n > 1 {
			o := opts
			o.Telemetry = telem
			id := b.log.begin("core.New", 0, n)
			tool, err = core.New(o)
			b.log.end(id)
			if err != nil {
				return nil, err
			}
		}
		runtime.GC()
		s, err := b.session(tool, n, telem)
		tool = nil
		if err != nil {
			fmt.Fprintf(b.out, "session %d failed: %v\n", n, err)
			b.failed += w.gathers(telem)
			continue
		}
		b.check(checkSession(s.res, opts.Tasks, w))
		if telem {
			if untracedRes != nil {
				b.check(firstErr(
					wrap("traced vs untraced 2D", sameTrees(s.res.Tree2D, untracedRes.Tree2D)),
					wrap("traced vs untraced 3D", sameTrees(s.res.Tree3D, untracedRes.Tree3D))))
				untracedRes = nil
			}
			b.check(checkFrame(s.res))
			if s.layers, err = b.layers(s, n); err != nil {
				return nil, err
			}
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
		fmt.Fprintf(b.out, "session %d (%s): first tree %.3f s, steady %v, peak heap %.1f MB\n",
			n, runSpanName(telem), s.firstTree.Seconds(), s.steady, float64(s.peakHeap)/1e6)
		last = s
	}
	if steal1, total1, ok := cpuTicks(); stealOK && ok && total1 > total0 {
		fmt.Fprintf(b.out, "host CPU steal while measuring: %.1f%%\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if last == nil || last.res == nil {
		return nil, errors.New("the final session failed; nothing to check against the reference")
	}

	// The reference check runs once, on the final round of the last
	// session, outside every timed region.
	id = b.log.begin("reference-check", 0, 0)
	classes := last.res.Classes
	if w.monitor() {
		classes = last.res.Tree2D.EquivalenceClasses()
	}
	b.check(wrap("reference", checkReference(opts.App.StackFuncs, last.res, classes, opts.Tasks, opts.Samples, w.rounds)))
	b.log.end(id)

	if cfg.trace {
		return b.layerMetrics(untraced, traced)
	}
	var first, steady, heap []float64
	for _, s := range untraced {
		heap = append(heap, float64(s.peakHeap)/1e6)
		first = append(first, s.firstTree.Seconds())
		for _, d := range s.steady {
			steady = append(steady, d.Seconds())
		}
	}
	fmt.Fprintf(b.out, "%d sessions; first_tree_s over %d, steady_round_s over %d samples\n",
		len(untraced), len(first), len(steady))
	return []metric{
		{"setup_s", "s", setup.Seconds()},
		{"first_tree_s", "s", median(first)},
		{"steady_round_s", "s", median(steady)},
		{"peak_heap_mb", "MB", mean(heap)},
		{"frontend_kb_per_round", "KB", frontendKBPerRound(last.res)},
	}, nil
}

// gathers is the number of gather rounds one session attempts.
func (w *workload) gathers(traced bool) int {
	if w.monitor() {
		return w.rounds + 1
	}
	if traced {
		return 1
	}
	return 2
}

// session runs one Tool session. One-shot sessions run Tool.Run twice on
// the same tool — cold, then warm — unless traced; monitor sessions run
// the cold round plus the workload's streamed rounds.
func (b *bench) session(tool *core.Tool, n int, traced bool) (*session, error) {
	w := b.cfg.workload
	s := &session{traced: traced}
	b.cur, b.curNo = s, n
	before := readGC()
	heap := watchHeap()
	b.attempted += w.gathers(traced)
	b.runStart = time.Now()
	b.runID = b.log.begin(runSpanName(traced), 0, n)
	res, err := tool.Run()
	b.log.end(b.runID)
	end := time.Now()
	s.gc = readGC().sub(before)
	if err == nil {
		err = firstErr(res.LaunchErr, res.MergeErr)
	}
	if err != nil {
		heap.finish()
		return nil, err
	}
	s.res = res
	if !w.monitor() {
		s.firstTree = end.Sub(b.runStart)
		if res.Telemetry != nil {
			s.frames = append(s.frames, *res.Telemetry)
		}
		if !traced {
			start := time.Now()
			id := b.log.begin("Tool.Run warm", 0, n)
			warm, err := tool.Run()
			b.log.end(id)
			if err == nil {
				err = firstErr(warm.LaunchErr, warm.MergeErr)
			}
			if err != nil {
				heap.finish()
				return nil, err
			}
			s.steady = append(s.steady, time.Since(start))
			b.check(firstErr(
				wrap("warm vs cold 2D", sameTrees(warm.Tree2D, res.Tree2D)),
				wrap("warm vs cold 3D", sameTrees(warm.Tree3D, res.Tree3D))))
		}
	}
	id := b.log.begin("heap-watch", 0, n)
	s.peakHeap = heap.finish()
	b.log.end(id)
	runtime.KeepAlive(tool)
	return s, nil
}

func runSpanName(traced bool) string {
	if traced {
		return "Tool.Run traced"
	}
	return "Tool.Run"
}

// checkSession runs the per-session property checks.
func checkSession(res *core.Result, tasks int, w *workload) error {
	if err := checkProperties(res, tasks); err != nil {
		return err
	}
	if w.monitor() {
		if res.StreamRounds != w.rounds {
			return fmt.Errorf("%d streamed rounds, want %d", res.StreamRounds, w.rounds)
		}
		if res.StreamDeltaRounds != res.StreamRounds || res.StreamMixedRetries != 0 {
			return fmt.Errorf("%d of %d streamed rounds arrived as deltas, %d mixed retries; a uniform v3 fleet streams only deltas",
				res.StreamDeltaRounds, res.StreamRounds, res.StreamMixedRetries)
		}
	}
	return nil
}

func frontendKBPerRound(res *core.Result) float64 {
	if res.StreamRounds > 0 {
		return float64(res.StreamDeltaBytes+res.StreamWholeBytes) / float64(res.StreamRounds) / 1e3
	}
	return float64(res.FrontEndInBytes) / 1e3
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean is used for peak_heap_mb. A session's peak live heap depends on
// which phases its few collections happen to land in, so it scatters more
// than session times do. Averaged over a run's sessions it repeats from
// run to run better than their median does.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func wrap(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
