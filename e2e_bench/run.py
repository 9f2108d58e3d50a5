#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md in this directory).

Builds bench_e2e and prio_server from the checkout, runs one workload, and
prints the result as the last line of stdout, one JSON object:

    python3 e2e_bench/run.py --workload bulk --seed 1 --seconds 25 --trace 0

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Build output and the benchmark's own report
go to stderr; BENCH_e2e.json and BENCH_e2e_trace.jsonl land in the build
directory ($CARGO_TARGET_DIR, default .bench_build, under the checkout).

--repeat N runs seeds seed .. seed+N-1 and prints, for every metric, the
median, min, max and the quartile spread as a share of the median: the
numbers the bounds in BENCHMARK.json were calibrated from.
"""

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no CMakeLists.txt at %s: not a source checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs, "--target", "bench_e2e"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


def stop_group(proc):
    """SIGKILLs proc's process group and reaps every member.

    run.py is a child subreaper (see main), so servers orphaned by a killed
    bench_e2e are reparented here and waited for too.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_once(build_dir, workload, seed, seconds, trace):
    out = os.path.join(build_dir, "BENCH_e2e.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(build_dir, "bench_e2e"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out", out,
           "--trace-out", os.path.join(build_dir, "BENCH_e2e_trace.jsonl"),
           "--work-dir", os.path.join(build_dir, "e2e")]
    if trace:
        cmd.append("--trace")
    # bench_e2e and the servers it spawns get a process group of their own,
    # so a run that overruns, or a run.py that is stopped, takes them all.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    finally:
        stop_group(proc)
    if not os.path.exists(out):
        raise RuntimeError("bench_e2e exited %d without a report" % rc)
    with open(out) as f:
        report = json.load(f)
    if report["error"]:
        raise RuntimeError("bench_e2e: " + report["error"])
    return rc, report


def select(report, names):
    metrics = {}
    for name in names:
        if name not in report["metrics"]:
            raise RuntimeError("bench_e2e did not report " + name)
        metrics[name] = report["metrics"][name]
    return metrics


def spread(values):
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()

    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

    try:
        build(build_dir)
        reports = []
        for i in range(args.repeat):
            t0 = time.time()
            rc, report = run_once(build_dir, args.workload, args.seed + i,
                                  seconds, args.trace)
            log("run %d (seed %d): rc %d, %.1f s" % (i, args.seed + i, rc, time.time() - t0))
            reports.append((rc, report))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("run.py: %s" % e)
        return 1

    if args.repeat > 1:
        log("%-34s %12s %12s %12s %8s" % ("metric", "median", "min", "max", "spread"))
        for name in names:
            vals = [r["metrics"][name]["value"] for _, r in reports]
            log("%-34s %12.4f %12.4f %12.4f %7.1f%%" % (
                name, statistics.median(vals), min(vals), max(vals), 100 * spread(vals)))

    report = reports[-1][1]
    correct = all(r["correct"] for _, r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in reports),
        "failed": sum(r["failed"] for _, r in reports),
        "metrics": select(report, names),
    }))
    return 0 if correct and all(c == 0 for c, _ in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
