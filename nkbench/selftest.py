#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 nkbench/selftest.py

- A tiny run of each workload passes the correctness gate, untraced
  and traced; the traced run writes its spans.
- The metric names and units printed match BENCHMARK.json.
- Two runs with the same seed give identical simulated metrics and
  layer counters; another seed gives other ones.
- In a directory holding only BENCHMARK.json and the benchmark's own
  files, the command exits nonzero without printing a result.

Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["tenants", "c10k", "modelcheck"]

# Metrics that depend on the host (time, memory, run length) rather
# than on the seed.
HOST_PREFIXES = ("setup_s", "host_", "host.", "gc.", "trace.")
HOST_SUFFIXES = (".host_share", ".fixed_share")


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def tiny(workload, seed, trace):
    out = subprocess.run(
        [run.EXE, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace} gate: {result}")
    return result["metrics"]


def simulated(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if not k.startswith(HOST_PREFIXES) and not k.endswith(HOST_SUFFIXES)}


def check_names(spec, metrics, what):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in metrics.items()}
    if want != got:
        fail(f"{what}: printed metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {[k for k in want if k in got and want[k] != got[k]]}")


def check_spans(workload):
    with open(os.path.join(run.BUILD_DIR, f"spans-{workload}.json")) as f:
        events = json.load(f)["traceEvents"]
    names = {e["name"] for e in events}
    if "window" not in names:
        fail(f"{workload}: no window span in the trace: {sorted(names)}")
    if workload != "modelcheck" and not {"loadgen", "evloop"} <= names:
        fail(f"{workload}: layer spans missing from the trace: {sorted(names)}")


def check_bare_directory(bench):
    bare = os.path.join(run.BUILD_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(bench["command"] + ["--workload", "c10k", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        fail(f"bare directory: exit {out.returncode}, stdout {out.stdout!r}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if not run.build():
        fail("build")
    for w in WORKLOADS:
        check_names(bench["end_to_end"], tiny(w, 5, 0), f"{w} --trace 0")
        traced = tiny(w, 5, 1)
        check_names(bench["per_layer"], traced, f"{w} --trace 1")
        check_spans(w)
        if w == "modelcheck":
            continue
        again = simulated(tiny(w, 5, 1))
        if simulated(traced) != again:
            diff = {k: (v, again[k]) for k, v in simulated(traced).items() if again[k] != v}
            fail(f"{w}: same seed, different simulated metrics: {diff}")
        other = simulated(tiny(w, 6, 1))
        if other["sim_req_per_mcycle"] == again["sim_req_per_mcycle"]:
            fail(f"{w}: the seed does not reach the simulation")
        print(f"ok {w}")
    check_bare_directory(bench)
    print("ok bare directory")
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
