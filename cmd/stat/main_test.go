package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestGoldenStream runs a small fixed-seed streaming session and compares
// its report with the committed golden file. One reduction worker and one
// walk slot fix the fold grouping and the walk order, so every line —
// decode counts and cache-hit rates included — is the same on every run.
func TestGoldenStream(t *testing.T) {
	args := []string{"-tasks", "256", "-seed", "7", "-stream", "2",
		"-reduce-workers", "1", "-sample-workers", "1"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stream2.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n%s", golden, out.String())
	}
}

// runStderr runs stat with args and returns what it wrote to stdout and
// to os.Stderr, where the flag set reports usage and parse errors.
func runStderr(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	f, ferr := os.CreateTemp(t.TempDir(), "stderr")
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer f.Close()
	var out bytes.Buffer
	saved := os.Stderr
	os.Stderr = f
	err = run(args, &out)
	os.Stderr = saved
	text, ferr := os.ReadFile(f.Name())
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out.String(), string(text), err
}

// TestRemovedFlagsRejected: the sampler and overlap selectors are gone
// with the code paths they chose, so naming them is a usage error.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-sampler", "legacy"},
		{"-sampler", "batched"},
		{"-overlap", "quiesced"},
		{"-overlap", "snapshot"},
	} {
		stdout, stderr, err := runStderr(t, append(args, "-tasks", "16")...)
		if !errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
		if !strings.Contains(stderr, "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: stderr does not name the unknown flag:\n%s", args, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: a rejected command line printed a report:\n%s", args, stdout)
		}
	}
}

// TestFlagGroupsCoverEveryFlag: every flag sits in exactly one flagGroups
// group, and every grouped name is a flag. -h prints each group's flags
// under its title and sweeps ungrouped ones into a trailing "other"
// section, so the usage text shows each flag once, and no "other".
func TestFlagGroupsCoverEveryFlag(t *testing.T) {
	_, text, err := runStderr(t, "-h")
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if strings.Contains(text, "\nother:") {
		t.Errorf("-h lists ungrouped flags:\n%s", text)
	}
	listed := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "  -") {
			listed[strings.Fields(line)[0][1:]]++
		}
	}
	grouped := map[string]string{}
	for _, g := range flagGroups {
		for _, name := range g.names {
			if prev, ok := grouped[name]; ok {
				t.Errorf("-%s is in both %q and %q", name, prev, g.title)
			}
			grouped[name] = g.title
			if listed[name] == 0 {
				t.Errorf("group %q names -%s, which is not a flag", g.title, name)
			}
		}
	}
	for name, n := range listed {
		if n != 1 {
			t.Errorf("-h lists -%s %d times", name, n)
		}
		if _, ok := grouped[name]; !ok {
			t.Errorf("-%s is in no flag group", name)
		}
	}
	for _, name := range []string{"sampler", "overlap"} {
		if listed[name] != 0 {
			t.Errorf("-h lists the removed -%s flag", name)
		}
	}
}

// TestHelpHidesZeroDefaults: -h prints "(default ...)" only for a non-zero
// default, and a duration's zero default reads "0s", not "0".
func TestHelpHidesZeroDefaults(t *testing.T) {
	_, text, err := runStderr(t, "-h")
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(text, "-subtree-timeout") {
		t.Fatal("-h does not list -subtree-timeout, the duration flag this test is about")
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasSuffix(line, "(default 0s)") {
			t.Errorf("-h prints a zero duration default: %q", line)
		}
	}
}
