#!/usr/bin/env python3
"""perf_smoke: every workload at reduced size, one timed repeat.

    python3 bench/perf/smoke.py --binary build-perf/dmpc_perf \
        --spec BENCHMARK.json --workloads bench/perf/workloads.json \
        --work build-perf/smoke [--wrong-digest]

Writes a scaled-down copy of the workloads file (n/64 and m/64; the
random-regular workload n/32, because at n=4096 the low-degree path's peak
machine load of 520 words exceeds its space S=512 and the space claim
fails), runs dmpc_perf on it, and checks that the artifact holds every
metric BENCHMARK.json names and that no run failed. With --wrong-digest it
pins a wrong answer digest on the first workload and checks instead that
dmpc_perf exits non-zero and reports that pin as the failure.
"""
import argparse
import json
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--wrong-digest", action="store_true")
    args = parser.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    with open(args.workloads) as f:
        defs = json.load(f)
    for w in defs["workloads"].values():
        g = w["graph"]
        g["n"] //= 32 if g["family"] == "regular" else 64
        if "m" in g:
            g["m"] //= 64
        w.pop("pins", None)
    first = spec["workloads"][0]["name"]
    if args.wrong_digest:
        defs["workloads"][first]["pins"] = {
            "seed": 1, "answer_fnv": "0000000000000000"}

    os.makedirs(args.work, exist_ok=True)
    small = os.path.join(args.work, "workloads.json")
    with open(small, "w") as f:
        json.dump(defs, f, indent=2)
    out = os.path.join(args.work, "out")
    run = subprocess.run([args.binary, "--spec=" + args.spec,
                          "--workloads=" + small, "--out=" + out,
                          "--repeats=1", "--seed=1"])
    with open(os.path.join(out, "BENCH_PERF.json")) as f:
        doc = json.load(f)
    by_name = {w["name"]: w for w in doc["workloads"]}

    errors = []
    if args.wrong_digest:
        if run.returncode == 0:
            errors.append("dmpc_perf exited 0 despite a wrong pinned digest")
        failures = by_name[first]["failures"]
        if not any("answer_fnv" in f for f in failures):
            errors.append("%s failures do not name the pin: %s" % (first, failures))
    else:
        if run.returncode != 0:
            errors.append("dmpc_perf exited %d" % run.returncode)
        for w in spec["workloads"]:
            got = by_name.get(w["name"])
            if got is None:
                errors.append("workload %s missing" % w["name"])
                continue
            if got["failed_runs"] != 0:
                errors.append("%s: failed runs %s" % (w["name"], got["failures"]))
            for m in spec["end_to_end"]:
                if m["name"] not in got["end_to_end"]:
                    errors.append("%s: end-to-end %s missing" % (w["name"], m["name"]))
            for m in spec["per_layer"]:
                if m["name"] not in got["per_layer"]:
                    errors.append("%s: per-layer %s missing" % (w["name"], m["name"]))
    for e in errors:
        print("FAIL: " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
