#!/usr/bin/env python3
"""Build the session benchmark from source and run it.

Run from the root of a checkout:

    python3 sessionbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Go build keeps its cache, temporary files, configuration and binary
under .bench_build/ in the checkout and never reaches the network. Once
the build is done this process is replaced by the benchmark binary
(exec), so a run leaves no process of its own behind: the build's
compiler processes are waited for, or killed with their whole process
group on the build deadline.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "sessionbench")
BUILD = os.path.join(ROOT, ".bench_build", "go")
BINARY = os.path.join(BUILD, "sessionbench")
BUILD_DEADLINE_S = 840


def build():
    for sub in ("cache", "tmp", "mod", "config"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "cache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOMODCACHE=os.path.join(BUILD, "mod"),
        # The go command's own settings and telemetry counters live under
        # the user's config directory; keep them in the checkout as well.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    proc = subprocess.Popen(
        ["go", "build", "-o", BINARY, "."],
        cwd=PKG,
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=BUILD_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("sessionbench: build did not finish within %d s" % BUILD_DEADLINE_S)
    if code != 0:
        sys.exit("sessionbench: build failed (exit %d)" % code)


def main():
    build()
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
