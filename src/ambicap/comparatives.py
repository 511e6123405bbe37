"""Comparative statics between models: tolerance of ex ante randomization,
tolerance of ambiguity, and filtering incentives.

Definitions quantify over all lotteries; they are checked on seeded sample
streams, so a holds-verdict means "no counterexample found in n samples"
while a fails-verdict carries a re-verifiable witness.

All three orders score samples in chunks of 1 to 64 with the axiom
checks' driver.  A sample is one fixed-width row of the sampler's uniforms
and a chunk is one ``rng.random`` call, so the chunk size never changes a
sample: the same seed gives the same witness as one sample at a time, and
the sampler ends after the reported sample.  The ea order logs the
``shares_optimal_perception`` cross-check notes of the pairs up to its
witness, in pair order and model2's before model1's, as one pair at a time
would."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .axioms import _constant, _first_violation, _mix, _rows, _values
from .geometry import _check_same_states, is_subset
from .model import (
    CapModel,
    FiniteFamily,
    Lottery,
    evaluate_many,
    evaluate_values,
    serialize_lottery,
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


def _shares(model: CapModel, P, Q):
    """(linear, intersects) of each row of the chunk lotteries P and Q.  One
    ``evaluate_many`` call scores the P and Q rows, then one
    ``evaluate_values`` call per mixture weight the rows still linear, so a
    row stops at its first nonaffine mixture."""
    B = len(P[0])
    results = evaluate_many(model, *_rows(model, P, Q))
    vP, vQ = np.array([r.value for r in results]).reshape(2, B)
    tags = [r.optimal_perceptions for r in results]
    intersects = np.array([perceptions_intersect(a, b) for a, b in zip(tags[:B], tags[B:])])
    linear = np.ones(B, dtype=bool)
    for lam in _SHARES_LAMBDAS:
        rows = np.flatnonzero(linear)
        if not rows.size:
            break
        mixed = evaluate_values(model, *_mix(np.full(rows.size, lam), _take(P, rows), _take(Q, rows)))
        linear[rows] = np.abs(mixed - (lam * vP[rows] + (1.0 - lam) * vQ[rows])) <= SHARES_TOL
    return linear, intersects


def _take(lotteries, rows):
    return lotteries[0][rows], lotteries[1][rows]


def shares_optimal_perception_detail(model: CapModel, P: Lottery, Q: Lottery):
    """(linear, intersects): affine value along the segment, and whether the
    two optimal-perception sets overlap; ``_shares`` on a batch of one."""
    _require_cap(model)
    _check_same_states(model, P)
    _check_same_states(model, Q)
    linear, intersects = _shares(model, *((X.probs[None], X.payoff_matrix[None]) for X in (P, Q)))
    return bool(linear[0]), bool(intersects[0])


def _disagreement(P: Lottery, Q: Lottery, linear: bool, intersects: bool, diagnostics: list | None = None):
    note = {"P": serialize_lottery(P), "Q": serialize_lottery(Q), "linear": linear, "argmax_intersects": intersects}
    log.warning("shares_optimal_perception cross-check disagreement: %s", note)
    if diagnostics is not None:
        diagnostics.append(note)


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
        _disagreement(P, Q, linear, intersects, diagnostics)
    return linear


def more_tolerant_ea_randomization(
    model1: CapModel, model2: CapModel, sampler, n: int = 2000
) -> ComparativeVerdict:
    """Wherever model2's value is affine between two lotteries, model1's
    must be too."""
    _require_cap(model1, model2)
    _require_samples(n)

    def scan(model, c):
        linear2, intersects2 = _shares(model2, c["P"], c["Q"])
        # model1 scores only the pairs that model2 values affinely
        linear1, intersects1 = np.ones_like(linear2), np.ones_like(linear2)
        kept = np.flatnonzero(linear2)
        if kept.size:
            linear1[kept], intersects1[kept] = _shares(model1, _take(c["P"], kept), _take(c["Q"], kept))
        flags = ~linear1
        for i in range(np.argmax(flags) + 1 if flags.any() else len(flags)):
            for linear, intersects in ((linear2, intersects2), (linear1, intersects1)):
                if linear[i] != intersects[i]:
                    pair = (Lottery(model.states, *lottery_row(c[key], i)) for key in "PQ")
                    _disagreement(*pair, bool(linear[i]), bool(intersects[i]))
        return flags, {}

    used, witness = _first_violation(model1, sampler, n, _draw_pair, scan)
    return ComparativeVerdict(witness is None, witness, used)


def _draw_pair(model, sampler, B):
    ((P, Q),) = sampler.chunk(B, "pair")
    return {"P": P, "Q": Q}


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
