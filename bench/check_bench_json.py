#!/usr/bin/env python3
"""Checks that every committed BENCH_*.json opens with the shared header.

Each systems microbench writes its baseline through bench::BenchJson
(bench/bench_common.h), whose header records what a reader needs to trust
the numbers: the bench name, the host's hardware_concurrency, the build type
and the commit. A baseline written by other means, or recorded before the
header existed, fails here.

Usage: python3 bench/check_bench_json.py [repo_root]
"""

import glob
import json
import os
import sys

HEADER = ["bench", "hardware_concurrency", "build_type", "commit"]


def problems(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"unreadable: {e}"]
    if not isinstance(doc, dict):
        return ["not a JSON object"]
    out = []
    if list(doc)[: len(HEADER)] != HEADER:
        out.append(f"does not open with {HEADER}")
    hc = doc.get("hardware_concurrency")
    if not isinstance(hc, int) or isinstance(hc, bool) or hc <= 0:
        out.append(f"hardware_concurrency must be a positive integer, got {hc!r}")
    for key in ("bench", "build_type", "commit"):
        if key in doc and (not isinstance(doc[key], str) or not doc[key]):
            out.append(f"'{key}' must be a non-empty string")
    return out


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.getcwd()
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        print(f"no BENCH_*.json under {root}")
        return 1
    failed = 0
    for path in paths:
        found = problems(path)
        name = os.path.basename(path)
        print(f"{name}: {'ok' if not found else '; '.join(found)}")
        failed += bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
