"""One benchmark process: set up a workload, then time whole rounds of it.

run.py starts this file with the BLAS thread count already pinned in the
environment.  It prints ``READY`` once set-up (import, inputs, one warm-up
operation) is done, then ``CAL`` with the set-up calibration (speed.py);
with ``--probe`` it stops there, so run.py can time several fresh set-ups.
Otherwise it runs a fixed number of whole rounds (``rounds_for``: enough to
fill about ``--seconds`` on the reference machine, and never fewer than the
tail percentile needs), so every run with the same ``--seconds`` attempts the
same operations.  Latencies are then speed-scaled (speed.py).  After the
last round it checks every output against the oracles and prints one JSON
line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import warnings

from speed import EVERY_S, kernel_seconds, scale_at, setup_kernel_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


class Raised:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"raised {type(exc).__name__}: {exc}"


def min_rounds(n_ops: int, tail_pct: float) -> int:
    """Fewest rounds that leave at least ten latencies above the tail percentile."""
    rounds = 1
    while rounds * n_ops - math.ceil(tail_pct / 100.0 * rounds * n_ops) < 10:
        rounds += 1
    return rounds


def rounds_for(workload, n_ops: int, seconds: float, trace: bool) -> int:
    """Rounds of one run: a function of ``--seconds`` only, never of how fast the machine is."""
    rounds = max(round(seconds / workload.round_s), min_rounds(n_ops, workload.tail_pct))
    return max(rounds, 2) if trace else rounds


def percentile(sorted_vals, pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[max(math.ceil(pct / 100.0 * len(sorted_vals)) - 1, 0)]


def calibrate(cal):
    """Append one (time, kernel seconds) sample to each kernel's list in ``cal`` (speed.py)."""
    for name, samples in cal.items():
        samples.append((time.perf_counter(), kernel_seconds(name)))


def run_round(ops, cal, tracer=None):
    """Run every operation once, calibrating in between; returns ((start,
    end) per operation, outputs)."""
    times, outs = [], []
    last = max(samples[-1][0] if samples else 0.0 for samples in cal.values())
    for i, op in enumerate(ops):
        if time.perf_counter() - last >= EVERY_S:
            calibrate(cal)
            last = time.perf_counter()
        if tracer is not None:
            tracer.op_index = i
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = Raised(exc)
        times.append((t0, time.perf_counter()))
        outs.append(out)
    calibrate(cal)
    return times, outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    before = setup_kernel_seconds()

    import numpy
    import scipy
    from scipy.integrate import IntegrationWarning

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(args.seed)
    quad_warnings = [0]

    def count_warning(message, category, *rest, **kw):
        if issubclass(category, IntegrationWarning):
            quad_warnings[0] += 1

    warnings.simplefilter("always", IntegrationWarning)
    warnings.showwarning = count_warning
    ops[0].run()
    print("READY", flush=True)
    print(f"CAL {before} {setup_kernel_seconds()}", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
    rounds = []
    kernels = [workload.kernel_of(op) for op in ops]
    cal = {name: [] for name in sorted(set(kernels))}
    for index in range(rounds_for(workload, len(ops), args.seconds, tracer is not None)):
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            tracer.keep_spans = index == 1
            warn0 = quad_warnings[0]
            try:
                times, outs = run_round(ops, cal, tracer)
            finally:
                tracer.uninstall()
            layer = layer_metrics(tracer.take_round(), quad_warnings[0] - warn0)
        else:
            times, outs = run_round(ops, cal)
            layer = None
        rounds.append({"traced": traced, "times": times, "outs": outs, "layer": layer})
    # read before the checks below, whose references allocate memory of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cal_t = {name: [t for t, _ in samples] for name, samples in cal.items()}
    cal_k = {name: [k for _, k in samples] for name, samples in cal.items()}
    for r in rounds:
        r["raw"] = [t1 - t0 for t0, t1 in r["times"]]
        r["lat"] = [(t1 - t0) * scale_at(name, cal_t[name], cal_k[name], (t0 + t1) / 2)
                    for name, (t0, t1) in zip(kernels, r["times"])]
        r["raw_wall"], r["wall"] = sum(r["raw"]), sum(r["lat"])
        r["scale"] = r["wall"] / r["raw_wall"]

    failed, unexpected, reasons = 0, 0, {}
    for i, op in enumerate(ops):
        for r in rounds:
            out = r["outs"][i]
            reason = out.reason if isinstance(out, Raised) else op.check.failure(out)
            if reason is None:
                continue
            failed += 1
            unexpected += op.fault is None
            reasons.setdefault(op.name, f"{op.fault or 'UNEXPECTED'}: {reason}")
    for name, reason in reasons.items():
        print(f"failed op [{name}] {reason}", file=sys.stderr)

    untraced = [r for r in rounds if not r["traced"]]

    def per_op(key):
        return {op.name: 1e3 * statistics.median(r[key][i] for r in untraced) for i, op in enumerate(ops)}

    op_median_ms = per_op("lat")
    lat_ms = sorted(1e3 * x for r in untraced for x in r["lat"])
    metrics = {}
    if tracer is None:
        metrics = {
            # both from each operation's median over the rounds: a slow stretch of the
            # machine then spoils one sample of an operation, not a round (README.md)
            "wall_s": (1e-3 * sum(op_median_ms.values()), "s"),
            "op_p50_ms": (statistics.median(op_median_ms.values()), "ms"),
            "op_tail_ms": (percentile(lat_ms, workload.tail_pct), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        for name, (_, unit) in traced_rounds[0]["layer"].items():
            values = [r["layer"][name][0] * (r["scale"] if unit == "ms" else 1.0) for r in traced_rounds]
            metrics[name] = (statistics.median(values), unit)
        base = statistics.median(r["wall"] for r in untraced)
        extra = statistics.median(r["wall"] for r in traced_rounds) - base
        metrics["trace.overhead_ms"] = (1e3 * extra, "ms")
        metrics["trace.overhead_pct"] = (100.0 * extra / base, "%")
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"absent": tracer.absent, "dropped": tracer.dropped,
                                     "ops": [op.name for op in ops]}) + "\n")
                for span_id, parent, op_index, name, t0, t1 in tracer.spans:
                    fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_index,
                                         "name": name, "start": t0, "end": t1}) + "\n")

    result = {
        "correct": unexpected == 0,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "tail_pct": workload.tail_pct,
        "round_walls_s": [r["wall"] for r in rounds],
        "raw_round_walls_s": [r["raw_wall"] for r in rounds],
        "round_scales": [r["scale"] for r in rounds],
        "calibration_kernel_s": {name: {"median": statistics.median(k), "samples": len(k)}
                                 for name, k in cal_k.items()},
        # raw clock readings, so other speed scalings can be tried on a finished run
        "raw_op_times_s": [r["times"] for r in rounds],
        "raw_calibration_s": cal,
        "op_median_ms": op_median_ms,
        "raw_op_median_ms": per_op("raw"),
        "failures": reasons,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
