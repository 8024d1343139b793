#!/usr/bin/env python3
"""Compare two sets of dmpc_perf artifacts (BENCH_PERF*.json).

    python3 bench/perf/compare.py PARENT CHANGE [--spec BENCHMARK.json]

PARENT and CHANGE are each an artifact file or a directory of them (read
in name order). A side's samples for one (workload, metric) are the timed
runs of all its artifacts, concatenated; run i of the parent and run i of
the change form pair i, so artifacts made in alternating order give
alternating pairs.

One row per (workload, end-to-end metric): both medians and quartiles, the
change's wins out of the pairs (ties count for neither), and a verdict:

  improved    the change wins at least 9 of every 10 pairs and the medians
              differ by more than the parent's interquartile range
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and the change's runs do not all read better or all
              read worse than the parent's
  unchanged   otherwise

Also prints each side's failed-run share and whether the answer digests and
model totals agree. Exits 1 when a row regressed, the model differs, or a
run failed; else 0. Standard library only.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def load_set(path):
    files = (sorted(glob.glob(os.path.join(path, "BENCH_PERF*.json")))
             if os.path.isdir(path) else [path])
    if not files:
        sys.exit("compare.py: no BENCH_PERF*.json under " + path)
    docs = []
    for name in files:
        with open(name) as f:
            docs.append(json.load(f))
    return docs


def workload(doc, name):
    for w in doc["workloads"]:
        if w["name"] == name:
            return w
    sys.exit("compare.py: workload %s missing from an artifact" % name)


def samples(docs, name, metric):
    values = []
    for doc in docs:
        values += workload(doc, name)["end_to_end"][metric]["samples"]
    return values


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, better, bound):
    """Return (wins, pairs, verdict) for one row."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    if pairs and wins >= 0.9 * len(pairs) and sign * (p_med - c_med) > p_q3 - p_q1:
        return wins, len(pairs), "improved"
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    all_worse = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread > bound and not all_better and not all_worse:
        return wins, len(pairs), "unresolved"
    if worse > bound:
        return wins, len(pairs), "regressed"
    return wins, len(pairs), "unchanged"


def failed_share(docs):
    failed = sum(w["failed_runs"] for d in docs for w in d["workloads"])
    runs = sum(w["runs"] for d in docs for w in d["workloads"])
    return failed, runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    parent, change = load_set(args.parent), load_set(args.change)

    status = 0
    header = "%-20s %-12s %-5s %-34s %-34s %-7s %s" % (
        "workload", "metric", "unit", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict")
    print(header)
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            p, c = samples(parent, name, m["name"]), samples(change, name, m["name"])
            if not p or not c:
                print("%-20s %-12s no samples" % (name, m["name"]))
                status = 1
                continue
            wins, pairs, result = verdict(p, c, m["better"], m["bound"])
            if result == "regressed":
                status = 1
            p_q1, p_med, p_q3 = quartiles(p)
            c_q1, c_med, c_q3 = quartiles(c)
            print("%-20s %-12s %-5s %-34s %-34s %-7s %s" % (
                name, m["name"], m["unit"],
                "%.6g [%.6g, %.6g]" % (p_med, p_q1, p_q3),
                "%.6g [%.6g, %.6g]" % (c_med, c_q1, c_q3),
                "%d/%d" % (wins, pairs), result))
        models = {json.dumps(workload(d, name).get("model"), sort_keys=True)
                  for d in parent + change}
        if len(models) != 1:
            print("%-20s model totals or answer digest DIFFER: %s" % (
                name, sorted(models)))
            status = 1

    for side, docs in (("parent", parent), ("change", change)):
        failed, runs = failed_share(docs)
        print("%s: %d of %d runs failed (%d artifacts)" % (
            side, failed, runs, len(docs)))
        if failed:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
