#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/main.exe from source
with dune (into .bench_build/, without dune's shared cache), runs one
workload in its own process, checks that the printed metrics are exactly
the ones BENCHMARK.json declares for the mode, and forwards the output.
The last line of standard output is the result object. The exit code is
the benchmark's own: 1 when an output check failed; 2 when the checkout
cannot be built; 3 when the run timed out; 4 when the output is
malformed.
"""

import json
import os
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
# Leaves the run, after an incremental build, inside 180 seconds.
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_child(cmd, timeout, **kwargs):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None
    return proc.returncode, out


def declared(spec, trace):
    metrics = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def validate(line, expected):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra)
    return None


def main():
    args = sys.argv[1:]
    for required in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(required):
            fail(2, "no %s here: run from the root of a full checkout" % required)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--workload") not in [w["name"] for w in spec["workloads"]]:
        fail(2, "unknown workload %r" % opts.get("--workload"))

    t0 = time.time()
    code, _ = run_child(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail(2, "build failed" if code is not None else "build timed out")
    print("perfbench: build %.1fs" % (time.time() - t0), file=sys.stderr)

    # The benchmark times its set-up from this moment.
    started_at = ["--started-at", "%.6f" % time.time()]
    code, out = run_child([EXE] + args + started_at, RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True)
    if code is None:
        fail(3, "run timed out after %ds" % RUN_TIMEOUT_S)
    if code != 0 and not out.strip():
        fail(code, "benchmark exited %d without a result" % code)
    lines = out.rstrip("\n").split("\n")
    try:
        problem = validate(lines[-1], declared(spec, opts.get("--trace", "0")))
    except (ValueError, AttributeError) as e:
        problem = "unreadable result line: %s" % e
    if problem:
        sys.stderr.write(out)
        fail(4, problem)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
