package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuTicks reads the host's aggregate CPU counters: the time stolen from
// this machine's virtual CPUs by the hypervisor, and the total. Steal
// slows every wall-clock figure of a run without any change to the
// program, so the run reports it beside them. ok is false where
// /proc/stat is not available.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
