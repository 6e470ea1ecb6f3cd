#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload olap_scan --seed 1 --seconds 20

The build goes to .bench_build/perfbench under the checkout root. The
perfbench binary prints a fingerprint line and a JSON result line; this
script passes the fingerprint through and prints, as the last line of
stdout, the result with exactly the metrics BENCHMARK.json names for the
mode: every end-to-end metric with --trace 0, every per-layer metric with
--trace 1 (0 for a layer the workload does not cross). It exits non-zero,
without a result line, when the build or the run fails, and non-zero with
"correct": false when an answer was wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 1
WORKLOADS = ("olap_scan", "point_wire", "ingest_mixed")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("build failed: %s" % e)
    # Relative to the checkout root, which keeps the server's socket path
    # short whatever the checkout's location.
    out_dir = os.path.join(".bench_build", "runs", args.workload)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", out_dir],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("perfbench exited with %d and no result" % proc.returncode)
    result = json.loads(lines[-1])

    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = measured.pop(m["name"])
        elif args.trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            sys.exit("perfbench did not report %s" % m["name"])
        if metrics[m["name"]]["unit"] != m["unit"]:
            sys.exit("unit of %s differs from BENCHMARK.json" % m["name"])
    if measured:
        sys.exit("metrics missing from BENCHMARK.json: %s" %
                 ", ".join(sorted(measured)))
    result["metrics"] = metrics

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
