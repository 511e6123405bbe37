"""The benchmark's own tests.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_of_each_workload(name, trace):
    result, details = run.measure(name, seed=3, seconds=0.05, trace=trace, tiny=True)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, details["failures"]
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.declared_metrics()[trace])
    tracing.assert_unwrapped()


def test_self_time_subtracts_the_time_children_cover():
    # span 0 is fully covered by its one child, span 1; span 2 has two
    # overlapping children that together cover [21, 25].
    start = [0, 0, 20, 21, 22]
    end = [10, 10, 30, 23, 25]
    parent = [-1, 0, -1, 2, 2]
    assert tracing.self_times(start, end, parent) == [0, 10, 6, 2, 3]


def _references(api):
    """Every function object the tracer may replace, by where it is held."""
    refs = {}
    for full, mod in tracing.package_modules().items():
        for attr, value in vars(mod).items():
            if callable(value):
                refs[(full, attr)] = value
    for (short, cls_name), methods in tracing.METHODS.items():
        cls = getattr(getattr(api, short), cls_name)
        for meth in methods:
            refs[(cls_name, meth)] = cls.__dict__[meth]
    for axiom_id, fns in api.axioms._AXIOM_TABLE.items():
        refs[("_AXIOM_TABLE", axiom_id)] = fns
    return refs


def test_traced_pass_restores_every_original():
    api = run.fresh_import()
    before = _references(api)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert api.axioms.evaluate_value is not before[("ambicap.axioms", "evaluate_value")]
        assert api.model.Lottery.__init__ is not before[("Lottery", "__init__")]
        # the untraced runner refuses to time wrapped functions
        with pytest.raises(RuntimeError, match="still traced"):
            run.run_rounds(workloads.FiniteAxioms(api, 0, tiny=True), rounds=1)
        plan = workloads.FiniteAxioms(api, 0, tiny=True)
        run.run_rounds(plan, rounds=1, tracer=tracer)
    finally:
        tracer.restore()
    after = _references(api)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert len(tracer.start) > 0


def test_wrong_expected_value_counts_as_failed_op():
    api = run.fresh_import()
    plan = workloads.Identify(api, 0, tiny=True)
    op = plan.round(0)[0]
    assert op.kind == "cost_estimate"
    _, _, true_cost = plan.members[plan.order[0]]

    right = run.Pass()
    run.execute([op], right)
    assert right.attempted == 1 and right.failures == []

    wrong = run.Pass()
    run.execute([workloads.Op(op.kind, op.call, workloads.cost_band_check(true_cost + 10.0))], wrong)
    assert wrong.attempted == 1 and len(wrong.failures) == 1


def test_raising_op_counts_as_failed_op():
    result = run.Pass()
    run.execute([workloads.Op("boom", lambda: 1 / 0, lambda out: None)], result)
    assert result.attempted == 1 and "ZeroDivisionError" in result.failures[0]


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(i) for i in range(100)]
    value, percentile = run.tail(latencies)
    assert sum(x > value for x in latencies) == 10
    assert value == 89.0 and percentile == pytest.approx(100 * 89 / 99)
