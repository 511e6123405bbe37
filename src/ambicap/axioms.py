"""Property-based axiom predicates runnable against any model.

Each axiom is a quantified (in)equality over lotteries; a check runs n
seeded trials at tolerance 1e-7 and stops at the first violation, whose
ingredients are stored in a witness dict that re-verifies by direct
evaluation.  Antecedents of conditional axioms get a small slack (1e-9) so
that knife-edge indifferences cannot mask genuine violations; variants
that satisfy an axiom do so with exact arithmetic identities, so the slack
never manufactures false counterexamples.

Trials run in chunks of 1, 2, 4, ... and at most ``_MAX_CHUNK`` trials.  A
trial is one fixed-width row of uniforms (see ``sampling``), so a chunk's
numbers are one ``rng.random`` call, and the chunk size never changes a
trial's numbers.  A chunk holds its lotteries as zero-padded arrays, scores
all of them with few ``evaluate_values`` calls and computes its violations
as one array expression.  The first violating trial is the witness.  The
sampler is then rewound to the chunk's start and draws the trials up to the
witness again, so it ends after the reported trial, where trial-by-trial
drawing would leave it.  Chunks grow from one trial because every trial
scored past the witness is wasted, and on a parametric model each costs an
LP.  One driver, ``_first_violation``, runs these trials and the samples of
the tolerance orders in ``comparatives``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import UtilityAct, _check_same_states
from .model import (
    CapModel,
    FiniteFamily,
    Lottery,
    evaluate_value,
    evaluate_values,
    serialize_lottery,
)
from .sampling import lottery_row
from .stock import P_5051, STATES_4, acts_5051, auxiliary_acts

AXIOM_IDS = (
    "A1-nondegeneracy",
    "A2-FSD",
    "A3-aepr",
    "A4-imtc",
    "A5-eaar",
    "A6-ica",
    "A-imtcm",
    "A-imt",
    "A-sica",
    "A-eapr",
    "A-psr",
)

TRIAL_TOL = 1e-7
RECHECK_TOL = 1e-8
_SLACK = 1e-9
_MAX_CHUNK = 64


@dataclass(frozen=True)
class AxiomReport:
    axiom_id: str
    holds: bool
    counterexample: dict | None
    trials: int


# A chunk maps each ingredient's key to (B,) floats, (B, S) acts or
# zero-padded (B, A) / (B, A, S) lotteries; row i is trial i.  A witness
# is read back for ``recheck_witness`` as a chunk of one.


def _serialize(model: CapModel, chunk: dict, w: int) -> dict:
    """JSON-ready ingredients of row ``w``, lotteries trimmed to their
    support."""
    out = {}
    for key, val in chunk.items():
        if isinstance(val, tuple):
            out[key] = serialize_lottery(Lottery(model.states, *lottery_row(val, w)))
        elif val.ndim == 2:
            out[key] = val[w].tolist()
        else:
            out[key] = float(val[w])
    return out


_ACT_KEYS = frozenset(["f", "g"])
_LOTTERY_KEYS = frozenset(["P", "Q", "R"])
_WEIGHT_KEYS = frozenset(["kappa", "lam"])


def _deserialize(model: CapModel, data: dict) -> dict:
    chunk = {}
    for key, val in data.items():
        if key in _ACT_KEYS:
            chunk[key] = UtilityAct(model.states, val).payoffs[None]
        elif key in _LOTTERY_KEYS:
            P = Lottery(model.states, *zip(*val))
            chunk[key] = (P.probs[None], P.payoff_matrix[None])
        elif key != "violation":
            chunk[key] = np.array([val], dtype=float)
            if not np.isfinite(chunk[key]).all():
                raise ValueError(f"trial ingredient {key!r} must be finite")
            if key in _WEIGHT_KEYS and not 0.0 <= chunk[key][0] <= 1.0:
                raise ValueError(f"mixture weight {key}={val} outside [0, 1]")
    return chunk


# lottery arithmetic over a chunk: the array forms of Lottery.dirac,
# Lottery.constant, mix_lotteries and mix_acts


def _dirac(acts):
    return np.ones((len(acts), 1)), acts[:, None, :]


def _constant(t, n_states: int):
    return np.ones((len(t), 1)), np.broadcast_to(t[:, None, None], (len(t), 1, n_states))


def _mix(lam, P, Q):
    w = lam[:, None]
    return (
        np.concatenate((w * P[0], (1.0 - w) * Q[0]), axis=1),
        np.concatenate((P[1], Q[1]), axis=1),
    )


def _mix_acts(lam, f, g):
    w = lam[:, None]
    return w * f + (1.0 - w) * g


def _rows(model: CapModel, *lotteries) -> tuple[np.ndarray, np.ndarray]:
    """The rows of stacked lotteries, lottery after lottery, as one
    zero-padded ``(probs, payoffs)`` pair of the widest width."""
    n_rows = len(lotteries[0][0])
    width = max(p.shape[1] for p, _ in lotteries)
    probs = np.zeros((len(lotteries), n_rows, width))
    payoffs = np.zeros((len(lotteries), n_rows, width, len(model.states)))
    for i, (p, x) in enumerate(lotteries):
        probs[i, :, : p.shape[1]] = p
        payoffs[i, :, : p.shape[1]] = x
    return probs.reshape(-1, width), payoffs.reshape(-1, width, len(model.states))


def _values(model: CapModel, *lotteries) -> np.ndarray:
    """(len(lotteries), B) values of stacked lotteries, from one
    ``evaluate_values`` call."""
    return evaluate_values(model, *_rows(model, *lotteries)).reshape(len(lotteries), -1)


def _iff_violation(d1, d2):
    """Violation size of 'd1-ranking implies matching d2-ranking' taken in
    both weak directions (the form all mixture-independence axioms share)."""
    v = np.where(d1 >= -_SLACK, np.maximum(0.0, -d2), 0.0)
    v = np.where(d1 <= _SLACK, np.maximum(v, d2), v)
    return np.maximum(0.0, v)


# violation functions over a chunk: nonnegative magnitudes, > tol means the
# axiom fails


def _fsd_violations(model, c):
    up, uq = _values(model, c["P"], c["Q"])
    return np.maximum(0.0, uq - up)


def _timing_violations(model, c, equality: bool):
    kappa, lam = c["kappa"], c["lam"]
    ex_post = _dirac(_mix_acts(lam, c["f"], c["g"]))
    ex_ante = _mix(lam, _dirac(c["f"]), _dirac(c["g"]))
    lhs, rhs = _values(model, _mix(kappa, ex_post, c["R"]), _mix(kappa, ex_ante, c["R"]))
    return np.abs(lhs - rhs) if equality else np.maximum(0.0, rhs - lhs)


def _aepr_violations(model, c):
    return _timing_violations(model, c, equality=False)


def _imt_violations(model, c):
    return _timing_violations(model, c, equality=True)


def _eaar_violations(model, c):
    mixed, up, uq = _values(model, _mix(c["lam"], c["P"], c["Q"]), c["P"], c["Q"])
    return np.maximum(0.0, mixed - np.maximum(up, uq))


def _eapr_violations(model, c):
    mixed, up, uq = _values(model, _mix(c["lam"], c["P"], c["Q"]), c["P"], c["Q"])
    return np.maximum(0.0, np.minimum(up, uq) - mixed)


def _ica_violations(model, c):
    lam, n_states = c["lam"], len(model.states)
    dp, dq = _constant(c["p"], n_states), _constant(c["q"], n_states)
    pp, qp, pq, qq = _values(
        model, _mix(lam, c["P"], dp), _mix(lam, c["Q"], dp),
        _mix(lam, c["P"], dq), _mix(lam, c["Q"], dq),
    )
    return _iff_violation(pp - qp, pq - qq)


def _sica_violations(model, c):
    lam = c["lam"]
    dp = _constant(c["p"], len(model.states))
    up, uq, pp, qp = _values(
        model, c["P"], c["Q"], _mix(lam, c["P"], dp), _mix(lam, c["Q"], dp)
    )
    return _iff_violation(up - uq, pp - qp)


def _psr_violations(model, c):
    lam, f, g = c["lam"], c["f"], c["g"]
    uf, ug = _values(model, _dirac(f), _dirac(g))
    swap = uf < ug
    f, g = np.where(swap[:, None], g, f), np.where(swap[:, None], f, g)
    uf, ug = np.where(swap, ug, uf), np.where(swap, uf, ug)
    pbar = c["p"][:, None]
    u_mix, e_f, e_g = _values(
        model,
        _dirac(_mix_acts(lam, f, g)),
        _dirac(_mix_acts(lam, f, pbar)),
        _dirac(_mix_acts(lam, g, pbar)),
    )
    return np.maximum(np.maximum(0.0, ug - u_mix), _iff_violation(uf - ug, e_f - e_g))


# trial draws: the chunk of B trials, each a row of the sampler's uniforms
# laid out in a fixed order


def _draw_fsd(model, sampler, B):
    """Q lowers each payoff of P by a uniform drop in [0, 50); the atoms of
    a probe wider than ``max_support`` past that width are not lowered, and
    atoms past the support keep payoff +0.0."""
    A, S = sampler.max_support, len(model.states)
    (probs, payoffs), drops = sampler.chunk(B, "lottery", A * S)
    drops = np.pad(50.0 * drops.reshape(B, A, S), ((0, 0), (0, payoffs.shape[1] - A), (0, 0)))
    return {"P": (probs, payoffs), "Q": (probs, payoffs - drops * (probs > 0.0)[:, :, None])}


_TIMING = ("uniform", "uniform", "act", "lottery")  # kappa, lam, f, R


def _draw_timing(model, sampler, B):
    kappa, lam, f, R, g = sampler.chunk(B, *_TIMING, "act")
    return {"kappa": kappa, "lam": lam, "f": f, "g": g, "R": R}


def _draw_timing_constant(model, sampler, B):
    kappa, lam, f, R, t = sampler.chunk(B, *_TIMING, "payoff")
    g = np.repeat(t[:, None], len(model.states), axis=1)
    return {"kappa": kappa, "lam": lam, "f": f, "g": g, "R": R}


def _draw_timing_comonotone(model, sampler, B):
    """g takes a sorted act's payoffs in f's stable order; two further
    columns tie a random neighbouring pair with probability 1/4 (ties count
    as comonotone)."""
    kappa, lam, f, R, act, tie = sampler.chunk(B, *_TIMING, "act", 2)
    n = len(model.states)
    values = np.sort(act, axis=1)
    if n > 1:
        tied = np.flatnonzero(tie[:, 0] < 0.25)
        i = (tie[tied, 1] * (n - 1)).astype(np.intp)
        values[tied, i + 1] = values[tied, i]
    g = np.empty_like(values)
    np.put_along_axis(g, np.argsort(f, axis=1, kind="stable"), values, axis=1)
    return {"kappa": kappa, "lam": lam, "f": f, "g": g, "R": R}


def _draw_pair_mix(model, sampler, B):
    (P, Q), lam = sampler.chunk(B, "pair", "uniform")
    return {"lam": lam, "P": P, "Q": Q}


def _draw_ica(model, sampler, B):
    (P, Q), lam, p, q = sampler.chunk(B, "pair", "uniform", "payoff", "payoff")
    return {"lam": lam, "P": P, "Q": Q, "p": p, "q": q}


def _draw_sica(model, sampler, B):
    (P, Q), lam, p = sampler.chunk(B, "pair", "uniform", "payoff")
    return {"lam": lam, "P": P, "Q": Q, "p": p}


def _draw_psr(model, sampler, B):
    lam, f, g, p = sampler.chunk(B, "uniform", "act", "act", "payoff")
    return {"lam": lam, "f": f, "g": g, "p": p}


_AXIOM_TABLE = {
    "A2-FSD": (_draw_fsd, _fsd_violations),
    "A3-aepr": (_draw_timing, _aepr_violations),
    "A4-imtc": (_draw_timing_constant, _imt_violations),
    "A5-eaar": (_draw_pair_mix, _eaar_violations),
    "A6-ica": (_draw_ica, _ica_violations),
    "A-imtcm": (_draw_timing_comonotone, _imt_violations),
    "A-imt": (_draw_timing, _imt_violations),
    "A-sica": (_draw_sica, _sica_violations),
    "A-eapr": (_draw_pair_mix, _eapr_violations),
    "A-psr": (_draw_psr, _psr_violations),
}


def _first_violation(model: CapModel, sampler, n: int, draw, scan):
    """(trials, witness) of the first of n trials that ``scan(model, chunk)``
    flags, or (n, None); ``scan`` also returns arrays whose entries at the
    witness join the ingredients that ``draw(model, sampler, B)`` drew for
    a chunk of B trials."""
    _check_same_states(model, sampler)
    done, size = 0, 1
    while done < n:
        mark = sampler.checkpoint()
        B = min(size, n - done)
        chunk = draw(model, sampler, B)
        flags, values = scan(model, chunk)
        if flags.any():
            w = int(np.argmax(flags))
            if w + 1 < B:
                # draw the trials up to the witness again: the same rows
                # of uniforms and the same probes
                sampler.rewind(mark)
                draw(model, sampler, w + 1)
            return done + w + 1, _serialize(model, chunk, w) | {k: float(v[w]) for k, v in values.items()}
        done += B
        size = min(2 * size, _MAX_CHUNK)
    return n, None


def _check_nondegeneracy(model) -> AxiomReport:
    """Existence of a strict ranking; completeness, transitivity, and
    continuity hold identically for any real-valued evaluator.

    One trial decides, so no pair is sampled: every belief set gives the
    constant lottery t the MEU t, so each variant values it at t - c, t + c
    or t, where c is the least cost (an affine parametric cost is least at a
    box corner, which the grid holds, so the LP cannot beat the grid).  The
    constants 1 and 0 thus differ by 1 up to rounding, far above TRIAL_TOL.
    """
    one, zero = (Lottery.constant(model.states, t) for t in (1.0, 0.0))
    holds = bool(abs(evaluate_value(model, one) - evaluate_value(model, zero)) > TRIAL_TOL)
    return AxiomReport("A1-nondegeneracy", holds, None if holds else {"note": "1 and 0 rank equal"}, 1)


def check_axiom(model: CapModel, axiom_id: str, sampler, n: int = 1000) -> AxiomReport:
    """Run n seeded trials of the axiom and report the first violation.

    ``n`` must be at least 1.  The sampler ends where drawing the reported
    trials one at a time would leave it.
    """
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if axiom_id == "A1-nondegeneracy":
        return _check_nondegeneracy(model)
    if axiom_id not in _AXIOM_TABLE:
        raise ValueError(f"unknown axiom id {axiom_id!r}; expected one of {AXIOM_IDS}")
    draw, violations = _AXIOM_TABLE[axiom_id]

    def scan(model, chunk):
        v = violations(model, chunk)
        return v > TRIAL_TOL, {"violation": v}

    trials, witness = _first_violation(model, sampler, n, draw, scan)
    return AxiomReport(axiom_id, witness is None, witness, trials)


def recheck_witness(
    model: CapModel, axiom_id: str, witness: dict, tol: float = RECHECK_TOL
) -> tuple[bool, float]:
    """Re-verify a stored witness by direct evaluation at a tighter
    tolerance; returns (still_violated, magnitude)."""
    if axiom_id not in _AXIOM_TABLE:
        raise ValueError(f"unknown axiom id {axiom_id!r}; expected one of {AXIOM_IDS}")
    chunk = _deserialize(model, witness)
    magnitude = float(_AXIOM_TABLE[axiom_id][1](model, chunk)[0])
    return magnitude > tol, magnitude


def necessary_axioms(model: CapModel) -> tuple[str, ...]:
    """Axiom ids the model's structure guarantees it satisfies."""
    ids = {"A1-nondegeneracy", "A2-FSD", "A3-aepr", "A4-imtc", "A6-ica"}
    v = model.variant
    if v in ("cap", "dual_self", "choquet"):
        ids.add("A5-eaar")
    if v in ("cautious", "double_maxmin"):
        ids.add("A-eapr")
    if v in ("dual_self", "double_maxmin"):
        ids.add("A-sica")
    if v == "double_maxmin":
        ids.add("A-psr")
    if v == "choquet":
        ids.add("A-imtcm")
    family = model.family
    if isinstance(family, FiniteFamily) and all(len(M) == 1 for M in family.sets):
        ids.update(["A-imt", "A-imtcm"])  # singleton members make MEU linear
    return tuple(a for a in AXIOM_IDS if a in ids)


def require_5051_box(Msets) -> None:
    """Raise ``ValueError`` unless every belief set is over ``STATES_4`` and
    lies in the 50-51 box (red+blue mass 50/101 at every vertex)."""
    for M in Msets:
        if M.states != STATES_4:
            raise ValueError(
                f"every belief set must be over the states {list(STATES_4.labels)}"
            )
        marginals = M.matrix[:, 0] + M.matrix[:, 1]
        if np.abs(marginals - P_5051).max() > 1e-9:
            raise ValueError(
                "every belief set must lie in the 50-51 box "
                "(red+blue mass 50/101 at every vertex)"
            )


def machina_5051_dual_self_property(Msets, sampler) -> AxiomReport:
    """Two-self analysis of the 50-51 acts: with every perception inside
    the 50-51 box, the value is affine along statewise g-h mixtures, so
    preferring f1 over f2 forces preferring f3 over f4.

    The mixtures at alpha = 0, 1/4, 1/2, 3/4, 1 and at three alphas drawn
    as one chunk are the first eight trials, and the implication is the
    ninth; g, h, the mixtures and f1..f4 are scored by one
    ``evaluate_values`` call, and the first failing trial is reported."""
    require_5051_box(Msets)
    model = CapModel(
        STATES_4, FiniteFamily([(M, 0.0) for M in Msets]), "dual_self"
    )
    aux, acts = auxiliary_acts(), acts_5051()
    g, h = aux["g"].payoffs, aux["h"].payoffs
    alphas = np.concatenate(([0.0, 0.25, 0.5, 0.75, 1.0], sampler.chunk(3, "uniform")[0]))
    rows = np.vstack((g, h, _mix_acts(alphas, g, h), *(f.payoffs for f in acts.values())))
    values = evaluate_values(model, *_dirac(rows))
    ug, uh, mixed = values[0], values[1], values[2 : 2 + len(alphas)]
    gaps = np.abs(mixed - (alphas * ug + (1.0 - alphas) * uh))
    bad = np.flatnonzero(gaps > TRIAL_TOL)
    if bad.size:
        i = int(bad[0])
        return AxiomReport(
            "machina-5051-dual-self",
            False,
            {"alpha": float(alphas[i]), "gap": float(gaps[i]), "kind": "affinity"},
            i + 1,
        )
    u = dict(zip(acts, values[2 + len(alphas) :].tolist()))
    trials = len(alphas) + 1
    d12 = u["f1"] - u["f2"]
    d34 = u["f3"] - u["f4"]
    if d12 > TRIAL_TOL and d34 < TRIAL_TOL:
        return AxiomReport(
            "machina-5051-dual-self",
            False,
            {"d12": d12, "d34": d34, "kind": "implication"},
            trials,
        )
    return AxiomReport("machina-5051-dual-self", True, None, trials)
