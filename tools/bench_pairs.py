#!/usr/bin/env python3
"""Runs the benchmark in alternating parent/change pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload kosarak-read --workload fs-mixed --seeds 1-10 --trace 0 \\
        --runs runs [--seconds 15] [--fold BENCH_14.json]

For each workload and seed it runs perfbench/run.py once in the parent
checkout and then once in the change checkout (pair i starts with the
change when i is odd, so neither side always runs first), and copies each
result file from that checkout's .bench_out/ into <runs>/parent/ or
<runs>/change/, where a later run cannot overwrite it. A failed run is
reported and its file is not copied. At the end it prints the
tools/bench_fold.py command over the two directories, or runs it with
--fold OUT. Both checkouts build from their own sources.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(checkout, workload, seed, seconds, trace, dest):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    name = "%s-seed%d-trace%d.json" % (workload, seed, trace)
    if done.returncode != 0:
        print("  FAILED (%s): %s" % (checkout, done.stdout.strip().splitlines()[-1:]), flush=True)
        return
    shutil.copy(os.path.join(checkout, ".bench_out", name), os.path.join(dest, name))
    print("  " + done.stdout.strip().splitlines()[-1], flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--runs", required=True, help="directory to copy the result files into")
    ap.add_argument("--fold", metavar="OUT", help="run tools/bench_fold.py into OUT at the end")
    a = ap.parse_args()

    sides = [("parent", os.path.abspath(a.parent)), ("change", os.path.abspath(a.change))]
    for name, _ in sides:
        os.makedirs(os.path.join(a.runs, name), exist_ok=True)
    for workload in a.workload:
        for i, seed in enumerate(seeds(a.seeds)):
            for name, checkout in (sides if i % 2 == 0 else sides[::-1]):
                print("%s seed %d trace %d: %s" % (workload, seed, a.trace, name), flush=True)
                run(checkout, workload, seed, a.seconds, a.trace, os.path.join(a.runs, name))

    fold = [sys.executable, os.path.join(HERE, "bench_fold.py"), "--out", a.fold or "BENCH.json"]
    for name, checkout in sides:
        fold += ["--side", name, os.path.join(a.runs, name)]
        sha = subprocess.run(["git", "-C", checkout, "describe", "--always", "--dirty"],
                             capture_output=True, text=True).stdout.strip()
        if sha:
            fold.append(sha)
    if a.fold:
        subprocess.run(fold, check=True)
    else:
        print(" ".join(fold))


if __name__ == "__main__":
    main()
