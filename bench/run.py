"""Benchmark entry point.

    python3 bench/run.py --workload search|evaluate|rational --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; markovlab is imported from its ``src``
directory.  The BLAS thread count is pinned to 1 in the environment of every
benchmark process before numpy is imported.

With ``--trace 0`` the measuring process (worker.py) times its rounds, and
once it has exited ``SETUP_SAMPLES - 1`` probe processes each time one more
fresh set-up; ``setup_s`` is the median of these samples and the measuring
process's own set-up.  With ``--trace 1`` no probes run; the measuring
process alternates untraced and traced rounds and reports the per-layer
metrics plus the tracing overhead.  The last line of standard output is the
result JSON; a fuller record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from speed import SETUP_K_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


class Runner:
    """Starts benchmark processes and kills any still alive at the deadline."""

    def __init__(self, args):
        self.args = args
        self.live = []
        self.raw_setups = []
        self.watchdog = threading.Timer(DEADLINE_S, self.kill_all)
        self.watchdog.daemon = True

    def kill_all(self):
        for proc in self.live:
            if proc.poll() is None:
                proc.kill()

    def start(self, extra):
        """Start worker.py and wait for READY; returns (process, scaled set-up seconds)."""
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace), *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
                                env=dict(os.environ, **PINNED_ENV), cwd=ROOT)
        self.live.append(proc)
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        cal = proc.stdout.readline().split()
        if line.strip() != "READY" or len(cal) != 3 or cal[0] != "CAL":
            raise BenchError(f"worker did not get ready (exit {proc.wait()})")
        self.raw_setups.append(setup)
        return proc, setup * SETUP_K_REF_S / ((float(cal[1]) + float(cal[2])) / 2)

    def measure(self):
        """Run the measuring process, then time the remaining fresh set-ups one after another."""
        extra = []
        if self.args.trace:
            stem = f"{self.args.workload}-seed{self.args.seed}"
            extra = ["--spans-out", os.path.join(OUT_DIR, stem + "-spans.jsonl")]
        proc, setup = self.start(extra)
        lines = proc.stdout.read().splitlines()
        if proc.wait() != 0 or not lines:
            raise BenchError(f"worker exited with code {proc.returncode}")
        setups = [setup]
        while not self.args.trace and len(setups) < SETUP_SAMPLES:
            probe, setup = self.start(["--probe"])
            if probe.wait() != 0:
                raise BenchError(f"set-up probe exited with code {probe.returncode}")
            setups.append(setup)
        return json.loads(lines[-1]), setups

    def close(self):
        self.watchdog.cancel()
        self.kill_all()
        for proc in self.live:
            proc.stdout.close()
            proc.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("search", "evaluate", "rational"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "markovlab", "__init__.py")):
        print(f"markovlab sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(args)
    runner.watchdog.start()
    try:
        record, setups = runner.measure()
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    metrics = record["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    record.update(metrics=metrics, setup_samples_s=setups, raw_setup_samples_s=runner.raw_setups,
                  workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  env=PINNED_ENV)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
