"""Time the benchmark's ``rational`` operations by kind.

It builds the ``rational`` round of ``bench/workloads.py`` for one seed, runs
one untimed round, then times every operation once per round.  For each kind
(identity exact or float, by number of variables; qms golden; qms chain) it
reports the number of operations, the median of their per-op medians, and
the sum of those medians, which is the kind's share of one round.  Times are
raw wall times, not scaled by the benchmark's calibration kernels.

Run from a checkout (BLAS pinned to one thread, as the benchmark does):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/rational_layers.py --rounds 9 --out layers.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402  (bench/workloads.py)


def kind(name: str) -> str:
    """'identity exact nvars=2 deg=3 k=1 #0' -> 'identity exact nvars=2'."""
    m = re.match(r"identity (exact|float) nvars=(\d)", name)
    if m:
        return f"identity {m.group(1)} nvars={m.group(2)}"
    return " ".join(name.split()[:2])


def measure(seed: int, rounds: int) -> list:
    ops = workloads.build_rational(seed)
    for op in ops:
        op.run()
    samples = {op.name: [] for op in ops}
    for _ in range(rounds):
        for op in ops:
            t0 = time.perf_counter()
            op.run()
            samples[op.name].append(time.perf_counter() - t0)
    by_kind: dict = {}
    for op in ops:
        by_kind.setdefault(kind(op.name), []).append(1e3 * statistics.median(samples[op.name]))
    return [{"kind": k, "ops": len(v), "median_op_ms": round(statistics.median(v), 3),
             "round_ms": round(sum(v), 2)} for k, v in by_kind.items()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--rounds", type=int, default=9, help="timed rounds")
    parser.add_argument("--out", help="write the rows as JSON here")
    args = parser.parse_args()
    rows = measure(args.seed, args.rounds)
    for r in rows:
        print(f"{r['kind']:>24} {r['ops']:3d} ops  median {r['median_op_ms']:8.3f} ms  "
              f"round {r['round_ms']:8.2f} ms")
    print(f"{'total':>24} {sum(r['ops'] for r in rows):3d} ops  "
          f"round {sum(r['round_ms'] for r in rows):8.2f} ms")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(rows, f, indent=1)


if __name__ == "__main__":
    main()
