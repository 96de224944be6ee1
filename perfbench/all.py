"""Run every benchmark workload, each in a fresh process, and print a table.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace 0|1]

A fresh process per workload keeps each workload's peak memory its own.
Prints every metric of every workload with its unit, the per-method wall
times and fail_ratio, and exits 1 if any workload failed a check.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-directed", "nearset-undirected", "corpus-small", "ingest")
RUN_TIMEOUT = 600


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT)
        print(f"== {name} (exit {proc.returncode})")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            ok = False
            continue
        *lines, last = proc.stdout.splitlines()
        result = json.loads(last)
        ok &= result["correct"]
        for line in lines:
            print("  " + line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
