package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// survivors lists the live (non-zombie) processes in process group pgid.
func survivors(t *testing.T, pgid int) []string {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	var out []string
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // exited while we looked
		}
		// Fields after the parenthesised command: state, ppid, pgrp.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 3 || f[0] == "Z" {
			continue
		}
		if g, _ := strconv.Atoi(f[2]); g == pgid {
			out = append(out, strconv.Itoa(pid)+" "+s[:strings.LastIndexByte(s, ')')+1])
		}
	}
	return out
}

// runGroup runs cmd as the leader of its own process group and returns
// its stdout, exit code and the group's surviving processes.
func runGroup(t *testing.T, cmd *exec.Cmd) (string, int, []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	left := survivors(t, cmd.Process.Pid)
	if left != nil {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}
	if code != 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return stdout.String(), code, left
}

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sessionbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// lastLine returns the final line of out.
func lastLine(out string) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	return lines[len(lines)-1]
}

// A run of every workload exits 0, ends with a correct result line, and
// leaves no process of its group running.
func TestRunLeavesNoProcess(t *testing.T) {
	bin := buildBinary(t)
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			cmd := exec.Command(bin, "--workload", w.name, "--seed", "5", "--seconds", "0.2",
				"--trace", traced, "--scale-tasks", "8192")
			cmd.Dir = t.TempDir()
			out, code, left := runGroup(t, cmd)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w.name, traced, code, out)
			}
			if left != nil {
				t.Errorf("%s trace %s: processes outlived the run: %v", w.name, traced, left)
			}
			var res result
			if err := json.Unmarshal([]byte(lastLine(out)), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v\n%s", w.name, traced, err, out)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace %s: result %+v\n%s", w.name, traced, res, out)
			}
			want := 5
			if traced == "1" {
				want = len(layerTable)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, traced, len(res.Metrics), want)
			}
		}
	}
}

// A run that reaches its deadline exits non-zero, prints no result, and
// leaves no process running.
func TestDeadlineExitsWithoutResult(t *testing.T) {
	bin := buildBinary(t)
	cmd := exec.Command(bin, "--workload", "monitor-208k-drift", "--seed", "5", "--seconds", "30",
		"--scale-tasks", "8192", "--deadline", "500ms")
	cmd.Dir = t.TempDir()
	out, code, left := runGroup(t, cmd)
	if code == 0 {
		t.Fatalf("exit 0 past the deadline\n%s", out)
	}
	if strings.Contains(out, `"correct"`) {
		t.Errorf("printed a result past the deadline:\n%s", out)
	}
	if left != nil {
		t.Errorf("processes outlived the run: %v", left)
	}
}

// The wrapper builds from source and replaces itself with the benchmark;
// neither the build's compiler processes nor the benchmark outlive it.
func TestWrapperLeavesNoProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark with its own cache")
	}
	if _, err := exec.LookPath("python3"); err != nil {
		t.Skip("no python3")
	}
	cmd := exec.Command("python3", "sessionbench/run.py", "--workload", "oneshot-1m", "--seed", "5",
		"--seconds", "0.2", "--trace", "0", "--scale-tasks", "8192")
	cmd.Dir = ".."
	out, code, left := runGroup(t, cmd)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if left != nil {
		t.Errorf("processes outlived the run: %v", left)
	}
	if !strings.HasPrefix(lastLine(out), `{"correct":true`) {
		t.Errorf("last line is not a correct result:\n%s", out)
	}
}
