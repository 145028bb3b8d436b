"""Self-tests of the benchmark: every check rejects a wrong value, the oracles
agree with closed forms, and tracing leaves the package as it found it.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from worker import percentile, rounds_for  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_check_rejects_a_wrong_value(name):
    ops = workloads.WORKLOADS[name].build(7)
    assert len({op.name for op in ops}) == len(ops)
    for op in ops:
        assert op.check.failure(op.check.wrong()) is not None, op.name


def test_checks_accept_their_reference():
    assert oracles.Close(2.0, 1e-9).failure(2.0) is None
    assert oracles.Within(1.0, 3.0).failure(2.0) is None
    assert oracles.Within(1.0, 1.0, 1e-9).failure(1.0 + 1e-10) is None
    assert oracles.Equal(0.0).failure(0.0) is None
    assert oracles.Sandwich(4, (2.0,)).failure((1.0, (0.9,))) is None


def test_lp_reference_matches_monomial_closed_forms():
    for n in (8, 64):
        c = np.polynomial.chebyshev.poly2cheb([0.0] * n + [1.0])
        for s in (1.5, 2.0, 3.0):
            got = oracles.lp_theta_reference(c, s, "lebesgue")
            assert math.isclose(got, oracles.monomial_lp_lebesgue(n, s), rel_tol=1e-11)
            got = oracles.lp_theta_reference(c, s, "chebyshev")
            assert math.isclose(got, oracles.monomial_lp_chebyshev(n, s), rel_tol=1e-11)


def test_closed_form_oracles():
    assert oracles.cheb_deriv_at_one(16, 1) == 256.0
    assert oracles.cheb_deriv_at_one(3, 4) == 0.0
    assert math.isclose(oracles.l2_factor_legendre(1, 1), math.sqrt(3.0), rel_tol=1e-14)
    assert math.isclose(oracles.l2_factor_legendre(2, 1), math.sqrt(15.0), rel_tol=1e-14)
    assert math.isclose(oracles.l2_factor_chebyshev(1, 1), math.sqrt(2.0), rel_tol=1e-14)
    t8 = np.zeros(9)
    t8[8] = 1.0
    assert math.isclose(oracles.sup_reference(t8), 1.0, rel_tol=1e-14)
    assert math.isclose(oracles.schur_reference(t8, 0.5), 1.0, rel_tol=1e-12)
    assert oracles.taylor_disk_witness(8, 1, 1e-6) < oracles.cheb_deriv_at_one(8, 1)
    assert oracles.qms_chain_exponent(1, 3, 4) == 6


def test_round_count_depends_on_seconds_only():
    for workload in workloads.WORKLOADS.values():
        n_ops = len(workload.build(7))
        for seconds in (1.0, 20.0):
            n = rounds_for(workload, n_ops, seconds, False) * n_ops
            assert n - math.ceil(workload.tail_pct / 100 * n) >= 10
            assert rounds_for(workload, n_ops, seconds, True) >= 2
    assert percentile(list(range(1, 101)), 95.0) == 95


def _package_bindings():
    """Every attribute of every markovlab module and of the classes they define."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "markovlab" or modname.startswith("markovlab."):
            for key, value in vars(module).items():
                out[(modname, key)] = value
                if isinstance(value, type):
                    out.update(((modname, key, k), v) for k, v in vars(value).items())
    return out


def test_tracer_counts_and_restores():
    """Counts are checked only for the functions the tracer found; a name
    missing from the package is skipped by design."""
    from markovlab import chebseries, norms
    from tracing import Tracer, layer_metrics

    before = _package_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        p = chebseries.chebyshev_t(6)
        spec = norms.SupSpec(workloads.domains.Interval(-1.0, 1.0))
        norms.evaluate_norm(spec, p, refine=False)
        norms.evaluate_norm(spec, p.deriv(1))
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert all(after.get(key) is value for key, value in before.items())
    m = layer_metrics(tracer.take_round(), 0)
    found = lambda target: "markovlab." + target not in tracer.absent  # noqa: E731
    if found("norms.evaluate_norm"):
        assert m["norms.coarse_evals"][0] == 1
        assert m["norms.refined_evals"][0] == 1
    if found("chebseries.nch.chebder"):
        assert m["chebseries.chebder_calls"][0] >= 1
    if found("chebseries.nch.chebval"):
        assert m["chebseries.chebval_calls"][0] >= 1
    if found("norms.sup_norm"):
        assert m["norms.sup_ms"][0] > 0.0
