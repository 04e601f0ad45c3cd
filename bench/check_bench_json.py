#!/usr/bin/env python3
"""Checks that every committed BENCH_*.json opens with the shared header.

Each systems microbench writes its baseline through bench::BenchJson
(bench/bench_common.h), whose header records what a reader needs to trust
the numbers: the bench name, the host's hardware_concurrency, the build type
and the commit. A baseline written by other means, or recorded before the
header existed, fails here.

As information only, it also names each baseline recorded before the last
commit that changed its bench source (bench/bench_<bench>.cc): its numbers
may no longer describe what the bench measures. A baseline recorded in the
working tree of that commit carries the commit's parent, so it counts as
current. Without a git checkout this report is skipped; it never fails the
check.

Usage: python3 bench/check_bench_json.py [repo_root]
"""

import glob
import json
import os
import shutil
import subprocess
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


def git(root, *args):
    done = subprocess.run(["git", "-C", root, *args], capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def stale(root, path):
    """The last commit touching path's bench source, if path's header commit
    predates that commit's parent; else None (None too without git)."""
    try:
        with open(path) as f:
            doc = json.load(f)
        source = os.path.join("bench", "bench_%s.cc" % doc["bench"])
        recorded = git(root, "rev-parse", "--verify", "--quiet",
                       str(doc["commit"]) + "^{commit}")
    except (OSError, ValueError, KeyError, TypeError):
        return None
    changed = git(root, "log", "-1", "--format=%H", "--", source)
    if not recorded or not changed:
        return None
    parent = git(root, "rev-parse", "--verify", "--quiet", changed + "^")
    if recorded in (changed, parent):
        return None
    ancestor = subprocess.run(
        ["git", "-C", root, "merge-base", "--is-ancestor", recorded, changed],
        capture_output=True)
    return changed[:7] if ancestor.returncode == 0 else None


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
    if os.path.exists(os.path.join(root, ".git")) and shutil.which("git"):
        for path in paths:
            changed = stale(root, path)
            if changed:
                print(f"stale (information only): {os.path.basename(path)} "
                      f"was recorded before {changed}, which changed its "
                      "bench source")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
