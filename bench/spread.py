"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload search --seeds 1-10 --seconds 20

Runs bench/run.py once per seed (one after another) and prints, for each
metric, the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the quartile distance as a share of the median, which is what a metric's
bound in BENCHMARK.json is compared against.  Also prints the failed share.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="an inclusive range such as 1-10")
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    results = []
    for seed in range(lo, hi + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        results.append(json.loads(out.strip().splitlines()[-1]))
        print(f"seed {seed}: {json.dumps(results[-1])}", flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
          f"failed share {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:32s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
