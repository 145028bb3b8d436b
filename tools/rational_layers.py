"""Time the benchmark's ``rational`` operations by kind, and the identity ones by phase.

It builds the ``rational`` round of ``bench/workloads.py`` for one seed, runs
one untimed round, then times every operation once per round.  For each kind
(identity exact or float, by number of variables; qms golden; qms chain) it
reports the number of operations, the median of their per-op medians, and
the sum of those medians, which is the kind's share of one round.  Times are
raw wall times, not scaled by the benchmark's calibration kernels.

Each round also takes every identity operation apart into the phases of
``power_identity_residual`` (``identity_phases``): the powers of f and of Df,
the operator images, the products and sums of the binomial sum, and the
final scale (``polynomials._relative_residual``).  Each phase is reported as
the sum over a kind's operations of its per-op medians, and the phases'
residual must be bitwise the one the operation returns.  The Python and
numpy versions and the BLAS thread count are printed first; ``--out``
writes them with the rows, as ``{"versions": ..., "rows": [...]}``.

Run from a checkout (BLAS pinned to one thread, as the benchmark does):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/rational_layers.py --rounds 9 --out layers.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402  (bench/workloads.py)
from markovlab import polynomials  # noqa: E402
from suite_times import versions  # noqa: E402  (tools/suite_times.py)

PHASES = ("powers", "images", "products and sums", "scale")


def kind(name: str) -> str:
    """'identity exact nvars=2 deg=3 k=1 #0' -> 'identity exact nvars=2'."""
    m = re.match(r"identity (exact|float) nvars=(\d)", name)
    if m:
        return f"identity {m.group(1)} nvars={m.group(2)}"
    return " ".join(name.split()[:2])


def identity_phases(f, d, k: int) -> tuple:
    """(residual, seconds by phase) of ``power_identity_residual(f, d, k)``,
    step by step as it takes them."""
    spent = dict.fromkeys(PHASES, 0.0)
    t0 = time.perf_counter()
    dk = d.power(k, f.nvars)
    (df,) = d.apply_all(f)
    t1 = time.perf_counter()
    lhs = df ** k
    powers = [f ** j for j in range(k + 1)]
    t2 = time.perf_counter()
    spent["images"] += t1 - t0
    spent["powers"] += t2 - t1
    acc = polynomials.MultiPoly.zero(f.nvars)
    for j in range(k + 1):
        t0 = time.perf_counter()
        (image,) = dk.apply_all(powers[k - j])
        t1 = time.perf_counter()
        acc = acc + (-1) ** j * math.comb(k, j) * (powers[j] * image)
        t2 = time.perf_counter()
        spent["images"] += t1 - t0
        spent["products and sums"] += t2 - t1
    t0 = time.perf_counter()
    residual = polynomials._relative_residual(lhs, acc, k)
    spent["scale"] += time.perf_counter() - t0
    return residual, spent


def measure(seed: int, rounds: int) -> list:
    ops = workloads.build_rational(seed)
    # an identity op is a lambda that binds its inputs f, d and k as defaults
    inputs = {op.name: op.run.__defaults__ for op in ops if op.name.startswith("identity")}
    for op in ops:
        got = op.run()
        if op.name in inputs:
            want = identity_phases(*inputs[op.name])[0]
            if got.hex() != want.hex():
                raise AssertionError(f"{op.name}: phases give {want!r}, the operation {got!r}")
    samples = {op.name: [] for op in ops}
    phases = {name: {p: [] for p in PHASES} for name in inputs}
    for _ in range(rounds):
        for op in ops:
            t0 = time.perf_counter()
            op.run()
            samples[op.name].append(time.perf_counter() - t0)
        for name, args in inputs.items():
            for p, s in identity_phases(*args)[1].items():
                phases[name][p].append(s)
    by_kind: dict = {}
    for op in ops:
        by_kind.setdefault(kind(op.name), []).append(op.name)
    rows = []
    for k, names in by_kind.items():
        medians = [1e3 * statistics.median(samples[n]) for n in names]
        row = {"kind": k, "ops": len(names), "median_op_ms": round(statistics.median(medians), 3),
               "round_ms": round(sum(medians), 2)}
        if names[0] in phases:
            row["phases_ms"] = {p: round(sum(1e3 * statistics.median(phases[n][p]) for n in names), 2)
                                for p in PHASES}
        rows.append(row)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--rounds", type=int, default=9, help="timed rounds")
    parser.add_argument("--out", help="write the rows as JSON here")
    args = parser.parse_args()
    ran_on = versions()
    print("  ".join(f"{k} {v}" for k, v in ran_on.items()))
    rows = measure(args.seed, args.rounds)
    for r in rows:
        print(f"{r['kind']:>24} {r['ops']:3d} ops  median {r['median_op_ms']:8.3f} ms  "
              f"round {r['round_ms']:8.2f} ms")
    print(f"{'total':>24} {sum(r['ops'] for r in rows):3d} ops  "
          f"round {sum(r['round_ms'] for r in rows):8.2f} ms")
    print("\nidentity phases, ms per round")
    print(f"{'':>24} " + "".join(f"{p:>18}" for p in PHASES))
    for r in rows:
        if "phases_ms" in r:
            print(f"{r['kind']:>24} " + "".join(f"{r['phases_ms'][p]:18.2f}" for p in PHASES))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"versions": ran_on, "rows": rows}, f, indent=1)


if __name__ == "__main__":
    main()
