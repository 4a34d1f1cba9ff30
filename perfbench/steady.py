#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

    python3 perfbench/steady.py --runs 10

Runs every workload of BENCHMARK.json --runs times through run.py
(untraced, run_seconds each), with seeds 1..runs and the workload order
alternating between iterations, then reports for each end-to-end metric: the
median, the interquartile spread as a share of the median
(statistics.quantiles, n=4), and how far the medians of the first and second
half of the runs lie apart. Use it to set the bounds and to re-check them
later; it exits non-zero when a spread or the distance between the halves
exceeds the metric's bound, or the share of failed operations differs
between runs.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("--runs must be at least 4 (two per half)")
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, 1 + i, seconds)
            results[w].append(r)
            print("run %2d %-16s %s" % (i, w, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())),
                flush=True)

    ok = True
    report = {"time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
              "runs": args.runs, "seconds": seconds, "workloads": {}}
    half = args.runs // 2
    print("\n%-16s %-14s %12s %8s %8s %9s %6s" %
          ("workload", "metric", "median", "spread", "bound", "halves", "ok"))
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median, rel = spread(values)
            first = statistics.median(values[:half])
            second = statistics.median(values[half:])
            drift = abs(second - first) / first
            row_ok = rel <= m["bound"] and drift <= m["bound"]
            ok = ok and row_ok
            rows[m["name"]] = {"values": values, "median": median, "spread": rel,
                               "bound": m["bound"], "halves_drift": drift,
                               "ok": row_ok}
            print("%-16s %-14s %12.6g %7.1f%% %7.1f%% %8.1f%% %6s" %
                  (w, m["name"], median, 100 * rel, 100 * m["bound"], 100 * drift,
                   "yes" if row_ok else "NO"))
        if len(shares) != 1 or not correct:
            ok = False
            print("%-16s failed shares %s, correct %s" % (w, sorted(shares), correct))
        report["workloads"][w] = {"metrics": rows, "failed_shares": sorted(shares),
                                  "correct": correct}

    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    records = os.path.join(ROOT if not os.path.isabs(out) else "", out, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, "steady-%s.json" %
                        datetime.datetime.now().strftime("%Y%m%dT%H%M%S"))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("\nrecord:", path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
