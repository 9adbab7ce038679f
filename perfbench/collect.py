#!/usr/bin/env python3
"""Run the benchmark several times and keep every result: a result set.

    python3 perfbench/collect.py --out DIR [--checkout PATH]
        [--workloads a,b] [--seeds 1-10]
        [--other PATH --other-out DIR2]

Each run is `python3 perfbench/run.py --workload W --seed N ...` in the
checkout's root, for the run_seconds its BENCHMARK.json fixes, saved as
DIR/W-seedN.json with its exit code, wall time, detail record and result
object. With --other, every seed also runs on a
second checkout (into DIR2), alternating which of the two goes first, so
the two sets form the alternating pairs compare.py expects. Point --other
at the same checkout to measure a commit against itself.
"""

import argparse
import json
import os
import subprocess
import sys
import time


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def parse_line(line):
    try:
        return json.loads(line)
    except ValueError:
        return None


def run_once(checkout, out_dir, workload, seed, seconds):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    detail = parse_line(lines[-2]) if len(lines) >= 2 else None
    record = {
        "workload": workload,
        "seed": seed,
        "exit_code": proc.returncode,
        "wall_s": time.time() - t0,
        "detail": (detail or {}).get("perfbench"),
        "result": parse_line(lines[-1]) if lines else None,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "%s-seed%d.json" % (workload, seed)), "w") as f:
        json.dump(record, f, indent=1)
    if record["result"] is None:
        sys.stderr.write(proc.stderr[-2000:])
    res = record["result"] or {}
    print("%s seed %d -> exit %d, %.1fs, %s" % (
        workload, seed, proc.returncode, record["wall_s"],
        {k: round(v["value"], 4) for k, v in res.get("metrics", {}).items()}), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--checkout", default=".")
    ap.add_argument("--other")
    ap.add_argument("--other-out")
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    a = ap.parse_args()
    with open(os.path.join(a.checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = [(a.checkout, a.out)]
    if a.other:
        sides.append((a.other, a.other_out or a.out + "-other"))
    for workload in workloads:
        for i, seed in enumerate(seeds_of(a.seeds)):
            order = sides if i % 2 == 0 else sides[::-1]
            for checkout, out in order:
                run_once(checkout, out, workload, seed, seconds)


if __name__ == "__main__":
    main()
