#!/usr/bin/env python3
"""Folds perfbench runs into one BENCH_<pr>.json.

    python3 tools/bench_fold.py --out BENCH_10.json \\
        --side parent runs/parent b853943 --side change runs/change

Each --side names a directory of result files as perfbench/run.py leaves
them in .bench_out/ (<workload>-seed<n>-trace<t>.json), and optionally the
git SHA of the checkout that produced them (default: `git describe
--always --dirty` of the directory, or "unknown"). Copy .bench_out/ aside
after each run: a later run of the same workload and seed overwrites it.

Per side, workload and trace mode the output holds, for every metric, the
median, first and third quartiles (linear interpolation) and run count, plus
the seeds, the failed operations and the build fingerprints seen. With two
sides it adds, per metric, the second side's median over the first's and
how many seeds the second side won, by each metric's `better` direction in
BENCHMARK.json (null for a metric that file does not declare).
"""
import argparse
import json
import os
import re
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = re.compile(r"^(?P<workload>[a-z0-9-]+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def quantile(sorted_xs, p):
    pos = p * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def git_sha(path):
    try:
        return subprocess.run(["git", "-C", path, "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load(directory):
    """{(workload, trace): {seed: result}} for the run files in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        m = RUN.match(name)
        if m:
            with open(os.path.join(directory, name)) as f:
                key = (m["workload"], "trace" + m["trace"])
                runs.setdefault(key, {})[int(m["seed"])] = json.load(f)
    if not runs:
        raise SystemExit("bench_fold: no run files in " + directory)
    return runs


def fold(runs):
    out = {}
    for (workload, trace), by_seed in sorted(runs.items()):
        values = {}
        for r in by_seed.values():
            for metric, v in r["metrics"].items():
                values.setdefault(metric, (v["unit"], []))[1].append(v["value"])
        out.setdefault(workload, {})[trace] = {
            "seeds": sorted(by_seed),
            "failed": sum(r["failed"] for r in by_seed.values()),
            "fingerprints": sorted({n.split()[2] for r in by_seed.values()
                                    for n in r["notes"] if n.startswith("build fingerprint")}),
            "metrics": {m: {"unit": unit, "n": len(xs), "median": quantile(sorted(xs), 0.5),
                            "q1": quantile(sorted(xs), 0.25), "q3": quantile(sorted(xs), 0.75)}
                        for m, (unit, xs) in sorted(values.items())},
        }
    return out


def compare(a_runs, b_runs, better):
    out = {}
    for key in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[key], b_runs[key]
        seeds = sorted(set(a) & set(b))
        rows = {}
        for metric in sorted(set(a[seeds[0]]["metrics"]) & set(b[seeds[0]]["metrics"])) if seeds else ():
            pairs = [(a[s]["metrics"][metric]["value"], b[s]["metrics"][metric]["value"]) for s in seeds]
            ma = quantile(sorted(x for x, _ in pairs), 0.5)
            mb = quantile(sorted(y for _, y in pairs), 0.5)
            sign = {"lower": -1, "higher": 1}.get(better.get(metric))
            rows[metric] = {"ratio": mb / ma if ma else None, "pairs": len(pairs),
                            "wins": sum(sign * (y - x) > 0 for x, y in pairs) if sign else None}
        out.setdefault(key[0], {})[key[1]] = rows
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--side", nargs="+", action="append", required=True,
                    metavar="ARG", help="NAME DIR [SHA], once per side")
    a = ap.parse_args()
    if any(len(s) not in (2, 3) for s in a.side):
        ap.error("--side takes NAME DIR [SHA]")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    loaded = [(s[0], s[1], s[2] if len(s) == 3 else git_sha(s[1]), load(s[1])) for s in a.side]
    result = {
        "nproc": len(os.sched_getaffinity(0)),
        "sides": {name: {"sha": sha, "workloads": fold(runs)} for name, _, sha, runs in loaded},
    }
    if len(loaded) == 2:
        (a_name, _, _, a_runs), (b_name, _, _, b_runs) = loaded
        result["compare"] = {"of": b_name, "to": a_name,
                             "workloads": compare(a_runs, b_runs, better)}
    with open(a.out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
