#!/usr/bin/env python3
"""Determinism guard of the repo benchmark.

    python3 perfbench/test_fingerprint.py

Runs every workload twice with one seed and once with another, at
--seconds 1. Each run prints a fingerprint of everything that must repeat
for a seed (learned layouts after Open and after each compaction, answers,
summed QueryStats counts, compaction count, snapshot and WAL sizes). Two
runs with the same seed must print the same fingerprint, so a drifting
figure is machine noise and not a different input; another seed must
change it, so the fingerprint does cover the inputs.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("olap_scan", "point_wire", "ingest_mixed")


def fingerprint(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    for line in proc.stdout.splitlines():
        if line.startswith("fingerprint "):
            return line.split()[1]
    raise AssertionError("%s printed no fingerprint" % workload)


def main():
    failures = 0
    for workload in WORKLOADS:
        a, b, c = (fingerprint(workload, s) for s in (1, 1, 2))
        ok = a == b and a != c
        failures += not ok
        print("%-13s seed1=%s seed1=%s seed2=%s %s" %
              (workload, a, b, c, "ok" if ok else "FAIL"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
