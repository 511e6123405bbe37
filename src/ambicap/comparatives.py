"""Comparative statics between models: tolerance of ex ante randomization,
tolerance of ambiguity, and filtering incentives.

Definitions quantify over all lotteries; they are checked on seeded sample
streams, so a holds-verdict means "no counterexample found in n samples"
while a fails-verdict carries a re-verifiable witness.

The ambiguity and filtering orders score samples in chunks of 1 to 64 with
the axiom checks' driver.  A sample is one fixed-width row of the sampler's
uniforms and a chunk is one ``rng.random`` call, so the chunk size never
changes a sample: the same seed gives the same witness as one sample at a
time, and the sampler ends after the reported sample.  The ea order goes
pair by pair, because its cross-check logs every pair it scores.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .axioms import _constant, _first_violation, _mix, _values
from .geometry import _check_same_states, is_subset
from .model import (
    CapModel,
    FiniteFamily,
    Lottery,
    evaluate_many,
    evaluate_value,
    evaluate_values,
    mix_lotteries,
    serialize_lottery,
    stack_lotteries,
)
from .sampling import lottery_row

log = logging.getLogger(__name__)

SHARES_TOL = 1e-7
_SHARES_LAMBDAS = tuple(np.linspace(0.1, 0.9, 9))


@dataclass(frozen=True)
class ComparativeVerdict:
    holds: bool
    counterexample: dict | None
    samples_used: int

    def __post_init__(self):
        if not self.holds and self.counterexample is None:
            raise ValueError("a failing verdict must carry a counterexample")


def _require_cap(*models):
    for m in models:
        if m.variant != "cap":
            raise ValueError(f"comparative defined for cap models, got {m.variant!r}")
        _check_same_states(models[0], m)


def _require_samples(n: int):
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")


def perceptions_intersect(tags1, tags2) -> bool:
    """True iff two optimal-perception lists share an entry: family indices
    must match exactly, theta tuples to within 1e-9 in every coordinate."""
    for a in tags1:
        for b in tags2:
            if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
                if len(a) == len(b) and all(abs(x - y) <= 1e-9 for x, y in zip(a, b)):
                    return True
            elif a == b:
                return True
    return False


def shares_optimal_perception_detail(model: CapModel, P: Lottery, Q: Lottery):
    """(linear, intersects): affine value along the segment, and whether the
    two optimal-perception sets overlap.  P and Q are scored by one
    ``evaluate_many`` call, the mixtures one at a time."""
    _require_cap(model)
    _check_same_states(model, P)
    _check_same_states(model, Q)
    pair = stack_lotteries([(P.probs, P.payoff_matrix), (Q.probs, Q.payoff_matrix)], len(model.states))
    rP, rQ = evaluate_many(model, *pair)
    linear = True
    for lam in _SHARES_LAMBDAS:
        mixed = evaluate_value(model, mix_lotteries(lam, P, Q))
        if abs(mixed - (lam * rP.value + (1.0 - lam) * rQ.value)) > SHARES_TOL:
            linear = False
            break
    return linear, perceptions_intersect(rP.optimal_perceptions, rQ.optimal_perceptions)


def shares_optimal_perception(
    model: CapModel, P: Lottery, Q: Lottery, diagnostics: list | None = None
) -> bool:
    """True iff the value is affine along the P-Q segment.

    The equivalent argmax-intersection test runs as a cross-check; any
    disagreement is a tolerance artifact and is logged, never silently
    resolved.
    """
    linear, intersects = shares_optimal_perception_detail(model, P, Q)
    if linear != intersects:
        note = {
            "P": serialize_lottery(P),
            "Q": serialize_lottery(Q),
            "linear": linear,
            "argmax_intersects": intersects,
        }
        log.warning("shares_optimal_perception cross-check disagreement: %s", note)
        if diagnostics is not None:
            diagnostics.append(note)
    return linear


def more_tolerant_ea_randomization(
    model1: CapModel, model2: CapModel, sampler, n: int = 2000
) -> ComparativeVerdict:
    """Wherever model2's value is affine between two lotteries, model1's
    must be too."""
    _require_cap(model1, model2)
    _require_samples(n)
    for i in range(n):
        P, Q = sampler.pair()
        if shares_optimal_perception(model2, P, Q) and not shares_optimal_perception(
            model1, P, Q
        ):
            return ComparativeVerdict(
                False,
                {"P": serialize_lottery(P), "Q": serialize_lottery(Q)},
                i + 1,
            )
    return ComparativeVerdict(True, None, n)


def more_tolerant_ambiguity(
    model1: CapModel, model2: CapModel, sampler, n: int = 2000
) -> ComparativeVerdict:
    """model1 values every sampled lottery at least as highly as model2."""
    _require_cap(model1, model2)
    _require_samples(n)

    def scan(model, c):
        (v1,), (v2,) = _values(model1, c["P"]), _values(model2, c["P"])
        return v1 < v2 - SHARES_TOL, {"value1": v1, "value2": v2}

    used, witness = _first_violation(model1, sampler, n, _draw_ambiguity, scan)
    return ComparativeVerdict(witness is None, witness, used)


def _draw_ambiguity(model, sampler, B):
    (P,) = sampler.chunk(B, "lottery")
    return {"P": P}


def _draw_filtering(model, sampler, B):
    lam, (P, Q), t = sampler.chunk(B, "uniform", "pair", "payoff")
    return {"lam": lam, "P": P, "Q": Q, "t": t}


def higher_filtering_incentives(
    model1: CapModel, model2: CapModel, sampler, n: int = 2000
) -> ComparativeVerdict:
    """Whenever model2 prefers the lottery ingredient over its constant
    replacement inside a mixture, model1 does too."""
    _require_cap(model1, model2)
    _require_samples(n)

    def scan(model, c):
        with_P = _mix(c["lam"], c["P"], c["Q"])
        with_t = _mix(c["lam"], _constant(c["t"], len(model.states)), c["Q"])
        d2 = np.subtract(*_values(model2, with_P, with_t))
        # model1 scores only rows where model2 weakly prefers P: a parametric row costs an LP
        d1, kept = np.full_like(d2, np.nan), d2 >= 0.0
        d1[kept] = np.subtract(*_values(model1, *((p[kept], x[kept]) for p, x in (with_P, with_t))))
        return kept & (d1 < -SHARES_TOL), {"d1": d1, "d2": d2}

    used, witness = _first_violation(model1, sampler, n, _draw_filtering, scan)
    return ComparativeVerdict(witness is None, witness, used)


def dominates_benefit(
    Msets, Mprime_sets, sampler, n: int = 2000, diagnostics: list | None = None
) -> bool:
    """Structural benefit dominance: every member of the second family
    contains some member of the first.

    Also samples n lotteries checking the equivalent value form (the best
    expected MEU under the first family dominates the second's); a sampled
    contradiction of a structural "true" would indicate a bug.  Each one is
    logged and appended to ``diagnostics`` in sample order, never silently
    dropped.
    """
    Msets, Mprime_sets = list(Msets), list(Mprime_sets)
    structural = all(
        any(is_subset(M, Mp) for M in Msets) for Mp in Mprime_sets
    )
    if structural and n > 0:
        # zero-cost dual_self: the value is the best expected MEU
        best, best_prime = (
            CapModel(sets[0].states, FiniteFamily([(M, 0.0) for M in sets]), "dual_self")
            for sets in (Msets, Mprime_sets)
        )
        (drawn,) = sampler.chunk(n, "lottery")
        gaps = evaluate_values(best, *drawn) - evaluate_values(best_prime, *drawn)
        for i in np.flatnonzero(gaps < -SHARES_TOL):
            note = {"P": serialize_lottery(Lottery(best.states, *lottery_row(drawn, i))), "gap": float(gaps[i])}
            log.error("benefit dominance sampled contradiction: %s", note)
            if diagnostics is not None:
                diagnostics.append(note)
    return structural
