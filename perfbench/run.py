#!/usr/bin/env python3
"""End-to-end benchmark of the library: builds the driver from source, runs
one workload and prints its metrics.

    python3 perfbench/run.py --workload mc3-dna --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree. The build goes to $CARGO_TARGET_DIR
(default .bench_build). With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json, with --trace 1 the per-layer ones. The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Every run also writes a self-contained record (host, build, samples) under
<build>/records/.
"""
import argparse
import datetime
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PARTIALS_KERNELS = ("StatesStates", "StatesPartials", "PartialsPartials")
# Workloads whose driver runs on one CPU. The simulated device's grid
# executor forks a pool of hardware_concurrency() helpers for every kernel
# launch, so on a shared host a core taken from any one of them stalls every
# launch and whole runs slow by a third or more; on one CPU the workload is
# exposed to the host's load the way the single-threaded workloads are.
ONE_CPU_WORKLOADS = ("partitioned-gpu",)


def driver_cpus(workload):
    """The CPU set the driver of `workload` runs on."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-1:] if workload in ONE_CPU_WORKLOADS else allowed


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(out):
    """Configure (once) and build the driver; returns its path or None."""
    cmake_dir = os.path.join(out, "cmake")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            return None
    return os.path.join(cmake_dir, "perfbench_driver")


def read_text(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def host_info():
    cpuinfo = read_text("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        fields = {k: (read_text(os.path.join(base, index, k)) or "").strip()
                  for k in ("level", "type", "size")}
        if fields["size"]:
            caches.append("L{level} {type} {size}".format(**fields))
    return {
        "cpu_model": model.group(1).strip() if model else None,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
    }


def build_info(out):
    cache = read_text(os.path.join(out, "cmake", "CMakeCache.txt")) or ""

    def entry(name):
        m = re.search(r"^%s:[A-Z]+=(.*)$" % re.escape(name), cache, re.M)
        return m.group(1) if m else None

    compiler = entry("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            pass
    flags = {}
    for target, rel in (("perfbench_driver", "CMakeFiles/perfbench_driver.dir"),
                        ("bgl_kernels", "bgl/kernels/CMakeFiles/bgl_kernels.dir")):
        text = read_text(os.path.join(out, "cmake", rel, "flags.make")) or ""
        m = re.search(r"^CXX_FLAGS = (.*)$", text, re.M)
        flags[target] = m.group(1).strip() if m else None
    return {
        "compiler": compiler,
        "compiler_version": version,
        "build_type": entry("CMAKE_BUILD_TYPE"),
        "cxx_flags": flags,
    }


def source_info():
    """The commit when the tree is a git checkout, and a digest of the
    library and benchmark sources either way."""
    commit = None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def trace_metrics(path, evals, partials_flops):
    """Queue wait and partials-kernel throughput from the Chrome trace of the
    traced window: kernel spans after the first evaluation's matrix update
    (the warm-up) belong to the window."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    starts = sorted(e["ts"] for e in events
                    if e.get("ph") == "B" and e.get("cat") == "updateTransitionMatrices")
    if len(starts) < 2:
        raise ValueError("trace holds %d evaluations" % len(starts))
    begin = starts[1]
    queued_ns = 0.0
    kernel_us = 0.0
    open_spans = {}
    for e in events:
        if e.get("cat") != "kernel" or e.get("ts", 0) < begin:
            continue
        if e["ph"] == "B":
            queued_ns += e.get("args", {}).get("queuedNs", 0)
            open_spans.setdefault(e["tid"], []).append(e)
        elif e["ph"] == "E" and open_spans.get(e["tid"]):
            b = open_spans[e["tid"]].pop()
            if b["name"] in PARTIALS_KERNELS:
                kernel_us += e["ts"] - b["ts"]
    if kernel_us <= 0:
        raise ValueError("trace holds no partials kernel spans")
    return {
        "hal.queue_wait_ms_per_eval": queued_ns / 1e6 / evals,
        "kernels.partials_gflops": partials_flops / (kernel_us * 1e-6) / 1e9,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload", args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}

    out = build_dir()
    driver = build(out)
    if driver is None:
        return 1
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", runs]
    cpus = driver_cpus(args.workload)
    try:
        # Measuring takes --seconds; inputs, set-ups and the trace window
        # take well under two minutes more.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120,
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        log("perfbench: driver exited with", proc.returncode)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    values = dict(raw["metrics"])
    if raw.get("trace_file"):
        try:
            values.update(trace_metrics(raw["trace_file"], raw["trace_window_evals"],
                                        raw["trace_window_partials_flops"]))
        except (OSError, ValueError, KeyError) as e:
            log("perfbench: unreadable trace:", e)
            return 1
        os.remove(raw["trace_file"])
    unknown = sorted(set(values) - known)
    if unknown:
        log("perfbench: driver reported unknown metrics", unknown)
        return 1
    metrics = {}
    for m in wanted:
        # Every workload reports every metric, 0 for a layer it leaves idle;
        # the driver leaves out a value that is not finite.
        if values.get(m["name"]) is None:
            log("perfbench: missing or non-finite metric", m["name"])
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "source": source_info(),
        "build": build_info(out),
        "host": host_info(),
        "driver_cpus": cpus,
        "correct": raw["correct"],
        "errors": raw["errors"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
        "samples": raw["samples"],
        "info": raw["info"],
    }
    records = os.path.join(out, "records")
    os.makedirs(records, exist_ok=True)
    name = "%s-seed%d-trace%d-%s.json" % (
        args.workload, args.seed, args.trace,
        datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f"))
    with open(os.path.join(records, name), "w") as f:
        json.dump(record, f, indent=1)

    for error in raw["errors"]:
        print("CHECK FAILED:", error)
    for key, m in metrics.items():
        print("%-32s %16.6g %s" % (key, m["value"], m["unit"]))
    print(json.dumps({"correct": bool(raw["correct"]) and raw["attempted"] >= 1,
                      "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
