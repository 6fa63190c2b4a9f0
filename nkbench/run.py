#!/usr/bin/env python3
"""Build the nested-kernel benchmark from source and run it.

    python3 nkbench/run.py --workload tenants|c10k|modelcheck \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The executable is built with dune
into .bench_build/ and then replaces this process, so its standard
output (whose last line is the JSON result) and exit code are the
benchmark's.  A failed build exits 1 without printing a result.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./nkbench/nkbench.exe"
EXE = os.path.join(BUILD_DIR, "default", "nkbench", "nkbench.exe")
BUILD_TIMEOUT_S = 850


def build():
    """Build the benchmark; return True on success.  Build output goes to
    stderr so that standard output carries only the benchmark's own."""
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "-j", "2", TARGET]
    try:
        proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    except OSError as e:
        print(f"nkbench: cannot run dune: {e}", file=sys.stderr)
        return False
    try:
        code = proc.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("nkbench: build timed out", file=sys.stderr)
        return False
    if code != 0:
        print("nkbench: build failed", file=sys.stderr)
    return code == 0


def main():
    if not build():
        return 1
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
