#!/usr/bin/env python3
"""Compare two benchmark result sets (directories written by collect.py).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

For each (workload, end-to-end metric) pair, runs are paired by seed and
judged by the small-sandbox rule:

- improved:   the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ, in the better
              direction, by more than the parent's quartile spread;
- regressed:  the change's median is worse than the parent's by more
              than the metric's bound;
- unresolved: the parent's own spread (quartile distance / median)
              exceeds the bound, so neither claim can be made — unless
              every change run beats every parent run;
- same:       none of the above.

The deterministic counts each run records (serve.sim_*, serve.batches,
the output digest, tune.*.scored/dominated/winner) must be
identical between the two runs of a seed.

Failed ops are compared, not required to be zero: a seed's change run
fails more than its parent run when its first iteration (the same
inputs on both sides) fails more ops, or when the parent run failed
none and the change run fails some. A workload where that happens gets
no "improved" verdict. Exits 1 on any regression, count mismatch, run
without a result, or seed where the change fails more ops.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        runs[(r["workload"], r["seed"])] = r
    return runs


def spread(values):
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def value(run, metric):
    try:
        return run["result"]["metrics"][metric]["value"]
    except (KeyError, TypeError):
        return None


def first_iteration(run):
    """Attempted and failed ops of the run's first iteration."""
    return run["detail"]["env"]["first_iteration"]


def judge(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) >= 2 else (med_p,) * 3
    worse_share = -sign * (med_c - med_p) / med_p if med_p else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread(parent) > bound and not all_better:
        verdict = "unresolved"
    elif wins >= 0.9 * len(pairs) and sign * (med_c - med_p) > (q3 - q1):
        verdict = "improved"
    elif worse_share > bound:
        verdict = "regressed"
    else:
        verdict = "same"
    return verdict, wins, med_p, med_c, worse_share


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    a = ap.parse_args()
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(a.parent), load(a.change)
    bad = False

    more_failures = set()
    for workload, seed in sorted(set(parent) & set(change)):
        p, c = parent[(workload, seed)], change[(workload, seed)]
        if p["result"] is None or c["result"] is None:
            print("no result: %s seed %d (%s)" % (
                workload, seed, "parent" if p["result"] is None else "change"))
            bad = True
            continue
        if first_iteration(c)["failed"] > first_iteration(p)["failed"] or (p["result"]["failed"] == 0 < c["result"]["failed"]):
            print("change fails more ops: %s seed %d" % (workload, seed))
            more_failures.add(workload)
            bad = True
    for w in spec["workloads"]:
        sides = [[r for (wl, _), r in runs.items() if wl == w["name"] and r["result"]]
                 for runs in (parent, change)]
        if not (sides[0] and sides[1]):
            continue
        first = ["%d/%d" % (sum(first_iteration(r)["failed"] for r in rs),
                            sum(first_iteration(r)["attempted"] for r in rs)) for rs in sides]
        whole = ["%d/%d" % (sum(r["result"]["failed"] for r in rs),
                            sum(r["result"]["attempted"] for r in rs)) for rs in sides]
        print("%s failed/attempted ops: first iterations parent %s, change %s; "
              "whole runs parent %s, change %s" % (w["name"], first[0], first[1], whole[0], whole[1]))

    print("%-12s %-12s %5s %14s %14s %8s %8s %8s %6s  %s" % (
        "workload", "metric", "pairs", "parent_med", "change_med", "p_sprd", "c_sprd",
        "worse", "wins", "verdict"))
    for w in spec["workloads"]:
        seeds = sorted(s for (wl, s) in parent if wl == w["name"] and (wl, s) in change)
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            p = [value(parent[(w["name"], s)], m["name"]) for s in seeds]
            c = [value(change[(w["name"], s)], m["name"]) for s in seeds]
            if None in p or None in c:
                print("%-12s %-12s missing values" % (w["name"], m["name"]))
                bad = True
                continue
            verdict, wins, med_p, med_c, worse = judge(p, c, m["better"], m["bound"])
            if verdict == "improved" and w["name"] in more_failures:
                verdict = "not improved: more failed ops"
            bad |= verdict == "regressed"
            print("%-12s %-12s %5d %14.6g %14.6g %8.4f %8.4f %+8.4f %3d/%-2d  %s (bound %.2f)" % (
                w["name"], m["name"], len(seeds), med_p, med_c, spread(p), spread(c),
                worse, wins, len(seeds), verdict, m["bound"]))

    mismatches = 0
    compared = 0
    for key in sorted(set(parent) & set(change)):
        ep = (parent[key]["detail"] or {}).get("exact", {})
        ec = (change[key]["detail"] or {}).get("exact", {})
        compared += 1
        diff = sorted(k for k in set(ep) | set(ec) if ep.get(k) != ec.get(k))
        if diff:
            mismatches += 1
            print("deterministic counts differ: %s seed %d: %s" % (key[0], key[1], diff))
    print("deterministic counts: %d of %d paired runs identical" % (compared - mismatches, compared))
    bad |= mismatches > 0
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
