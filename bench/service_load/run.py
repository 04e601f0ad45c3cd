#!/usr/bin/env python3
"""Builds bench_service_load from source and runs it; the one command.

Run from the root of a checkout:

  python3 bench/service_load/run.py --workload hot_counts --seed 1 \\
      --seconds 10 --trace 0

builds the binary (CMake, Release) under $CARGO_TARGET_DIR or .bench_build,
runs one workload in a child process, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, measured with telemetry
off; with --trace 1 they are its per_layer metrics, from a traced run.

Other modes:
  --workload all      every workload, one line each
  --smoke             every workload, traced and untraced, at 1/50 of the
                      work with every check on; exits non-zero on a failure
  --record PATH       5 interleaved untraced runs of every workload plus one
                      traced run each, summarised into PATH (baseline.json)
  --out PATH          also append each run's record to PATH (JSON lines), the
                      input format of compare.py

Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170
RECORD_RUNS = 5


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("library sources (src/) not found: run from a full checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "service_load")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target",
                  "bench_service_load", "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  env=env, cwd=ROOT)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path, 3)
    return os.path.join(build_dir, "bench_service_load")


def run_binary(binary, workload, seed, seconds, traced, smoke=False,
               label="", extra=()):
    """Runs one workload; returns the binary's JSON result (or None)."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed]
    if seconds is not None:
        cmd.append("--seconds=%s" % seconds)
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    if label:
        cmd.append("--label=" + label)
    cmd.extend(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out" % workload, file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if not lines or done.returncode not in (0, 1):
        print("run.py: %s exited %d without a result" %
              (workload, done.returncode), file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print("run.py: %s printed no JSON result" % workload, file=sys.stderr)
        return None


def contract_result(result, specs):
    """The one-line result: the listed metrics with their units."""
    if result is None:
        return None
    metrics = {}
    correct = bool(result.get("correct"))
    for spec in specs:
        m = result["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            print("run.py: metric %s missing or in another unit" %
                  spec["name"], file=sys.stderr)
            return None
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def append_record(path, workload, seed, trace, result):
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "trace": trace, "result": result}) + "\n")


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def record_baseline(binary, bench, workloads, args):
    """Interleaved untraced runs plus one traced run per workload."""
    e2e = bench["end_to_end"]
    layers = bench["per_layer"]
    untraced = {w: [] for w in workloads}
    traced = {}
    meta = None
    for r in range(RECORD_RUNS):
        shift = r % len(workloads)
        for w in workloads[shift:] + workloads[:shift]:
            result = run_binary(binary, w, args.seed + r, args.seconds, False,
                                label=args.label)
            if result is None or not result["correct"]:
                fail("baseline run of %s failed" % w, 1)
            meta = result
            untraced[w].append(result)
    for w in workloads:
        result = run_binary(binary, w, args.seed, args.seconds, True,
                            label=args.label)
        if result is None or not result["correct"]:
            fail("traced baseline run of %s failed" % w, 1)
        traced[w] = result
    out = {
        "label": args.label,
        "hardware_concurrency": meta["hardware_concurrency"],
        "build_type": meta["build_type"],
        "run_seconds": args.seconds,
        "runs": RECORD_RUNS,
        "seeds": [args.seed + r for r in range(RECORD_RUNS)],
        "workloads": {},
    }
    for w in workloads:
        summary = {}
        for spec in e2e:
            vals = [r["metrics"][spec["name"]]["value"] for r in untraced[w]]
            q1, q2, q3 = quartiles(vals)
            summary[spec["name"]] = {"unit": spec["unit"], "median": q2,
                                     "q1": q1, "q3": q3,
                                     "spread": (q3 - q1) / q2 if q2 else None}
        traced_qps = traced[w]["metrics"]["qps"]["value"]
        per_layer = {spec["name"]: traced[w]["metrics"][spec["name"]]["value"]
                     for spec in layers}
        out["workloads"][w] = {
            "end_to_end": summary,
            "tracing_overhead": 1.0 - traced_qps / summary["qps"]["median"],
            "per_layer": per_layer,
        }
    with open(args.record, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote " + args.record)


def main():
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", metavar="PATH")
    parser.add_argument("--out", metavar="PATH")
    parser.add_argument("--inject-divergence", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.seconds is None and not args.smoke:
        args.seconds = bench["run_seconds"]

    if args.record:
        record_baseline(binary, bench, workloads, args)
        return 0

    if args.smoke:
        start = time.monotonic()
        ok = True
        for w in workloads:
            for traced in (False, True):
                result = run_binary(binary, w, args.seed, None, traced,
                                    smoke=True)
                good = result is not None and result["correct"]
                ok &= good
                print("%-14s %-8s %s" % (w, "traced" if traced else "untraced",
                                         "ok" if good else "FAILED"))
        print("smoke: %.1fs" % (time.monotonic() - start))
        return 0 if ok else 1

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    extra = ["--inject-divergence"] if args.inject_divergence else []
    produced = True
    for w in workloads if args.workload == "all" else [args.workload]:
        result = contract_result(
            run_binary(binary, w, args.seed, args.seconds, bool(args.trace),
                       label=args.label, extra=extra), specs)
        if result is None:
            produced = False
            continue
        if args.out:
            append_record(args.out, w, args.seed, args.trace, result)
        print(json.dumps(result))
        produced &= result["correct"]
    return 0 if produced else 1


if __name__ == "__main__":
    sys.exit(main())
