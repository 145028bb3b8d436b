"""Print the output of every benchmark operation, one line each.

It builds the rounds of ``bench/workloads.py`` for one seed and runs every
operation once, printing ``<workload> | <operation> | <repr of its output>``
(or of the exception it raised).  Two checkouts give the same numbers when
their outputs are equal, so a refactor's "bitwise equal" is a ``diff``:

    PYTHONPATH=src python tools/bench_outputs.py --seed 1 > outputs-1.txt
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402  (bench/workloads.py)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    for name in sorted(workloads.WORKLOADS):
        for op in workloads.WORKLOADS[name].build(args.seed):
            try:
                out = repr(op.run())
            except Exception as exc:  # an operation that raises is one output line too
                out = f"raised {type(exc).__name__}: {exc}"
            print(f"{name} | {op.name} | {out}", flush=True)


if __name__ == "__main__":
    main()
