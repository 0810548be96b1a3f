package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestGoldenCaptures renders one committed capture of each kind — a v1
// (STR1) tree saved by an earlier build, v2 and v3 trees, and an STSM
// stream capture with delta rounds — and compares the output with its
// golden file. The v1 capture is the compatibility pin: v1 is no longer
// written, but saved v1 trees must keep opening.
func TestGoldenCaptures(t *testing.T) {
	for _, name := range []string{"str1.tree", "str2.tree", "str3.tree", "stream.stsm"} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{filepath.Join("testdata", name)}, &out); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", strings.TrimSuffix(name, filepath.Ext(name))+".golden")
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
		})
	}
}

// TestCaptureVersionsAgree: the three tree captures hold the same merged
// tree, so everything after the format header lines must be identical.
func TestCaptureVersionsAgree(t *testing.T) {
	body := func(name string) string {
		var out bytes.Buffer
		if err := run([]string{filepath.Join("testdata", name)}, &out); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		return s[strings.Index(s, "tasks, "):]
	}
	v1 := body("str1.tree")
	for _, name := range []string{"str2.tree", "str3.tree"} {
		if got := body(name); got != v1 {
			t.Errorf("%s renders differently from the v1 capture:\n%s\nvs\n%s", name, got, v1)
		}
	}
}

func TestRunRejects(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != errUsage {
		t.Errorf("no file: err = %v, want usage", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.tree")
	if err := os.WriteFile(bad, []byte("XXXX0000"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestDOTStaysClean: -dot prints only the graph, for trees and for stream
// replays alike.
func TestDOTStaysClean(t *testing.T) {
	for _, name := range []string{"str1.tree", "stream.stsm"} {
		var out bytes.Buffer
		if err := run([]string{"-dot", filepath.Join("testdata", name)}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out.String(), "digraph") {
			t.Errorf("%s: -dot output does not start with the graph:\n%s", name, out.String())
		}
	}
}
