// Command stat-view renders a merged call-graph prefix tree saved by
// `stat -save`: as an indented outline, as equivalence classes, or as
// Graphviz DOT (the paper's Figure 1 rendering). It also replays stream
// captures recorded by `stat -stream N -stream-save`: each delta frame is
// folded into the live tree with trace.ApplyDelta, reporting the rounds
// where the equivalence classes changed, then the final tree renders as
// usual.
//
//	stat -tasks 1024 -save run.tree
//	stat-view run.tree                # outline + classes
//	stat-view -dot run.tree > fig.dot # Graphviz
//	stat -tasks 1024 -stream 20 -stream-save run.stsm
//	stat-view run.stsm                # replay the stream, then render
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"stat/internal/bitvec"
	"stat/internal/trace"
)

// replayStream folds an STSM capture (see cmd/stat's streamCapture) back
// into a live tree, printing one line per round to w and flagging class
// transitions (nothing is printed when quiet). Returns the final folded
// tree.
func replayStream(w io.Writer, data []byte, quiet bool) (*trace.Tree, error) {
	if len(data) < 5 || data[4] != 1 {
		return nil, fmt.Errorf("unsupported stream capture header")
	}
	rest := data[5:]
	var live *trace.Tree
	prevClasses := ""
	for round := 0; len(rest) > 0; round++ {
		if len(rest) < 5 {
			return nil, fmt.Errorf("round %d: truncated record header", round)
		}
		kind := rest[0]
		n := int(binary.LittleEndian.Uint32(rest[1:5]))
		rest = rest[5:]
		if kind > 2 {
			return nil, fmt.Errorf("round %d: unknown record kind %d", round, kind)
		}
		if n > len(rest) {
			return nil, fmt.Errorf("round %d: truncated frame (%d of %d bytes)", round, len(rest), n)
		}
		frame := rest[:n]
		rest = rest[n:]
		if kind == 2 {
			// A post-mortem record: UTF-8 flight-recorder dumps attached to
			// a degraded capture. Not a round — print and keep folding.
			if !quiet {
				fmt.Fprintf(w, "post-mortem record (%d bytes):\n%s", n, frame)
			}
			round--
			continue
		}
		what := "whole tree"
		if kind == 0 {
			t, err := trace.UnmarshalBinary(frame)
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", round, err)
			}
			if live != nil {
				live.Release()
			}
			live = t
		} else {
			what = "delta"
			if live == nil {
				return nil, fmt.Errorf("round %d: delta frame with no preceding whole tree", round)
			}
			d, err := trace.Decode(frame, trace.DecodeOpts{Delta: true})
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", round, err)
			}
			err = trace.ApplyDelta(live, d)
			d.Release()
			if err != nil {
				return nil, fmt.Errorf("round %d: fold: %w", round, err)
			}
		}
		cs := live.EquivalenceClasses()
		sig := ""
		for _, c := range cs {
			sig += c.String() + "\n"
		}
		note := ""
		if round > 0 && sig != prevClasses {
			note = "  << classes changed"
		}
		prevClasses = sig
		if !quiet {
			fmt.Fprintf(w, "round %3d: %s, %d bytes, %d nodes, %d classes%s\n",
				round, what, n, live.NodeCount(), len(cs), note)
		}
	}
	if live == nil {
		return nil, fmt.Errorf("capture holds no rounds")
	}
	return live, nil
}

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "stat-view:", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("usage: stat-view [-dot] [-classes] [-outline] <tree or stream-capture file>")

// run renders the capture named in args to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stat-view", flag.ContinueOnError)
	dot := fs.Bool("dot", false, "emit Graphviz DOT on stdout")
	classes := fs.Bool("classes", true, "print equivalence classes")
	outline := fs.Bool("outline", true, "print the tree outline")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() != 1 {
		return errUsage
	}
	name := fs.Arg(0)
	data, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	var tree *trace.Tree
	if len(data) >= 4 && string(data[:4]) == "STSM" {
		// -dot keeps stdout clean for the graph, so the replay runs silent.
		if tree, err = replayStream(w, data, *dot); err != nil {
			return err
		}
		if !*dot {
			fmt.Fprintln(w)
		}
	} else {
		// The decoder dispatches on the magic, so v1 captures from earlier
		// builds, 8-aligned v2 saves, and compressed-label v3 saves open
		// alike; sniff first only to report it. Decoding through a codec
		// additionally collects the v3 container mix for the header line.
		version, err := trace.SniffWireVersion(data)
		if err != nil {
			return err
		}
		codec := trace.NewCodec()
		if tree, err = trace.Decode(data, trace.DecodeOpts{Codec: codec}); err != nil {
			return err
		}
		if !*dot {
			fmt.Fprintf(w, "%s: wire format v%d\n", name, version)
			if ls := codec.LabelStats(); ls.Labels() > 0 {
				fmt.Fprintf(w, "label containers: %d run, %d array, %d dense (%d label bytes on the wire)\n",
					ls.Run, ls.Array, ls.Dense, ls.Bytes())
			}
		}
	}
	return render(w, name, tree, *dot, *classes, *outline)
}

// render emits the common views of a loaded (or replayed) tree.
func render(w io.Writer, name string, tree *trace.Tree, dot, classes, outline bool) error {
	if dot {
		return tree.WriteDOT(w, name)
	}
	fmt.Fprintf(w, "%d tasks, %d nodes, depth %d\n", tree.NumTasks, tree.NodeCount(), tree.Depth())
	// The root sentinel's label holds every task that contributed a trace,
	// so it doubles as the capture's coverage record: a tree saved from a
	// degraded (fault-tolerant) gather covers only the surviving ranks.
	if covered := tree.Root.Tasks.Count(); covered < tree.NumTasks {
		var missing []int
		for r := 0; r < tree.NumTasks; r++ {
			if !tree.Root.Tasks.Get(r) {
				missing = append(missing, r)
			}
		}
		fmt.Fprintf(w, "coverage: PARTIAL — %d of %d ranks (missing %s)\n",
			covered, tree.NumTasks, bitvec.FormatRanges(missing))
	} else {
		fmt.Fprintf(w, "coverage: complete (%d ranks)\n", covered)
	}
	fmt.Fprintln(w)
	if outline {
		fmt.Fprint(w, tree)
	}
	if classes {
		fmt.Fprintln(w, "\nequivalence classes:")
		for _, c := range tree.EquivalenceClasses() {
			fmt.Fprintf(w, "  %s\n", c)
		}
	}
	return nil
}
