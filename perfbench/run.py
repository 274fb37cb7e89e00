#!/usr/bin/env python3
"""Runs one workload of the LES3 benchmark.

    python3 perfbench/run.py --workload kosarak-read --seed 1 --seconds 15 --trace 0

Builds the program from source if needed (perfbench/build.py), runs the
workload in one JVM, and prints its report. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: every end_to_end metric of BENCHMARK.json with --trace 0, every
per_layer metric with --trace 1. All metrics the run measured, its notes
and (traced) its spans are kept under .bench_out/. The exit code is not 0
when the build or the run fails, or a declared metric is missing.
"""
import argparse
import json
import os
import subprocess
import sys
import threading

sys.dont_write_bytecode = True
import build  # noqa: E402  (perfbench/build.py)

WORKLOADS = ("kosarak-read", "fs-mixed", "pmc-spark")
RUN_TIMEOUT_S = 170
# Spark on Java 17 needs these packages opened to it.
OPENS = ["java.base/" + p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if a.trace else "end_to_end"]

    classpath = build.build()
    out = os.path.join(build.ROOT, ".bench_out")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # One collector thread set and C2-only compilation make runs repeat more
    # closely; transparent huge pages keep TLB behaviour the same each run.
    cmd = (["java", "-Xmx3g", "-XX:+UseParallelGC", "-XX:-TieredCompilation",
            "-XX:+UseTransparentHugePages", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
            "-Dlog4j2.configurationFile=" + os.path.join(build.HERE, "log4j2.properties")]
           + ["--add-opens=%s=ALL-UNNAMED" % p for p in OPENS]
           + ["-cp", classpath, "perfbench.Bench", "--workload", a.workload,
              "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
              "--out", out])
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE,
                            encoding="utf-8", errors="replace")
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        proc.wait()
    finally:
        timed_out = not watchdog.is_alive()
        watchdog.cancel()
        if proc.poll() is None:  # stopped reading early: stop the JVM too
            proc.kill()
            proc.wait()
    if timed_out:
        sys.exit("run: killed after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0 or result is None:
        sys.exit("run: the benchmark JVM failed (exit code %s)" % proc.returncode)

    metrics = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.exit("run: declared metrics not measured: " + ", ".join(missing))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in declared},
    }))


if __name__ == "__main__":
    main()
