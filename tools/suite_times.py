"""Time each ``markovlab verify`` suite end to end.

Runs every suite of ``markovlab.verify.SUITES`` (or those named by
``--suite``) ``--reps`` times in one process, after one untimed run each, and
reports the median wall time of each, with the Python and numpy versions and
the BLAS thread count the run had.  Every run of a suite must give the same
checks (names, statuses and measured values) as its untimed run; a suite
where one does not is marked ``CHANGED``.

Run from a checkout (BLAS pinned to one thread, as the benchmark does):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/suite_times.py --seed 1729 --reps 5 --out suites.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np

from markovlab.verify import SUITES, run_suite

_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> str:
    """The BLAS thread count the environment sets, or "default" where none does."""
    return next((f"{name}={os.environ[name]}" for name in _BLAS_VARIABLES if name in os.environ), "default")


def time_suite(name: str, seed: int, reps: int) -> dict:
    """The median wall time of ``reps`` runs of suite ``name``, in seconds,
    and whether every run gave the checks of the untimed first one."""
    checks = run_suite(name, seed=seed).to_json()["checks"]
    times, same = [], True
    for _ in range(reps):
        start = time.perf_counter()
        report = run_suite(name, seed=seed)
        times.append(time.perf_counter() - start)
        same &= report.to_json()["checks"] == checks
    return {"suite": name, "median_s": round(statistics.median(times), 4), "min_s": round(min(times), 4),
            "passed": all(c["status"] == "pass" for c in checks), "same_checks": same, "checks": checks}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1729, help="suite seed")
    parser.add_argument("--reps", type=int, default=5, help="timed runs per suite")
    parser.add_argument("--suite", action="append", choices=list(SUITES), help="a suite to time (default: all)")
    parser.add_argument("--out", help="write the report as JSON here")
    args = parser.parse_args()
    versions = {"python": platform.python_version(), "numpy": np.__version__, "blas_threads": blas_threads()}
    print("  ".join(f"{k} {v}" for k, v in versions.items()))
    rows = []
    for name in args.suite or list(SUITES):
        row = time_suite(name, args.seed, args.reps)
        rows.append(row)
        flag = "" if row["same_checks"] else "  CHANGED"
        print(f"{name:<18}{row['median_s']:9.3f} s  (min {row['min_s']:.3f}, {args.reps} runs)"
              + ("" if row["passed"] else "  FAIL") + flag)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"versions": versions, "seed": args.seed, "reps": args.reps, "suites": rows}, f, indent=1)


if __name__ == "__main__":
    main()
