"""Property-based axiom predicates runnable against any model.

Each axiom is a quantified (in)equality over lotteries; a check runs n
seeded trials at tolerance 1e-7 and stops at the first violation, whose
ingredients are stored in a witness dict that re-verifies by direct
evaluation.  Antecedents of conditional axioms get a small slack (1e-9) so
that knife-edge indifferences cannot mask genuine violations; variants
that satisfy an axiom do so with exact arithmetic identities, so the slack
never manufactures false counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import UtilityAct
from .model import (
    CapModel,
    FiniteFamily,
    Lottery,
    constant_act,
    evaluate_value,
    mix_acts,
    mix_lotteries,
    serialize_lottery,
)
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


@dataclass(frozen=True)
class AxiomReport:
    axiom_id: str
    holds: bool
    counterexample: dict | None
    trials: int


def _U(model: CapModel, P: Lottery) -> float:
    return evaluate_value(model, P)


def _serialize_raw(raw: dict) -> dict:
    out = {}
    for key, val in raw.items():
        if isinstance(val, UtilityAct):
            out[key] = val.payoffs.tolist()
        elif isinstance(val, Lottery):
            out[key] = serialize_lottery(val)
        else:
            out[key] = float(val)
    return out


_ACT_KEYS = frozenset(["f", "g"])
_LOTTERY_KEYS = frozenset(["P", "Q", "R"])


def _deserialize_raw(states, data: dict) -> dict:
    raw = {}
    for key, val in data.items():
        if key in _ACT_KEYS:
            raw[key] = UtilityAct(states, val)
        elif key in _LOTTERY_KEYS:
            probs, payoffs = zip(*val)
            raw[key] = Lottery(states, probs, payoffs)
        elif key != "violation":
            raw[key] = float(val)
    return raw


def _iff_violation(d1: float, d2: float) -> float:
    """Violation size of 'd1-ranking implies matching d2-ranking' taken in
    both weak directions (the form all mixture-independence axioms share)."""
    v = 0.0
    if d1 >= -_SLACK:
        v = max(v, -d2)
    if d1 <= _SLACK:
        v = max(v, d2)
    return max(0.0, v)


# violation functions: nonnegative magnitude, > tol means the axiom fails


def _viol_fsd(model, raw):
    return max(0.0, _U(model, raw["Q"]) - _U(model, raw["P"]))


def _viol_timing(model, raw, equality: bool) -> float:
    kappa, lam = raw["kappa"], raw["lam"]
    ex_post = Lottery.dirac(mix_acts(lam, raw["f"], raw["g"]))
    ex_ante = mix_lotteries(
        lam, Lottery.dirac(raw["f"]), Lottery.dirac(raw["g"])
    )
    lhs = _U(model, mix_lotteries(kappa, ex_post, raw["R"]))
    rhs = _U(model, mix_lotteries(kappa, ex_ante, raw["R"]))
    return abs(lhs - rhs) if equality else max(0.0, rhs - lhs)


def _viol_aepr(model, raw):
    return _viol_timing(model, raw, equality=False)


def _viol_imt(model, raw):
    return _viol_timing(model, raw, equality=True)


def _viol_eaar(model, raw):
    mixed = _U(model, mix_lotteries(raw["lam"], raw["P"], raw["Q"]))
    return max(0.0, mixed - max(_U(model, raw["P"]), _U(model, raw["Q"])))


def _viol_eapr(model, raw):
    mixed = _U(model, mix_lotteries(raw["lam"], raw["P"], raw["Q"]))
    return max(0.0, min(_U(model, raw["P"]), _U(model, raw["Q"])) - mixed)


def _viol_ica(model, raw):
    lam = raw["lam"]
    dp = Lottery.constant(model.states, raw["p"])
    dq = Lottery.constant(model.states, raw["q"])
    d1 = _U(model, mix_lotteries(lam, raw["P"], dp)) - _U(
        model, mix_lotteries(lam, raw["Q"], dp)
    )
    d2 = _U(model, mix_lotteries(lam, raw["P"], dq)) - _U(
        model, mix_lotteries(lam, raw["Q"], dq)
    )
    return _iff_violation(d1, d2)


def _viol_sica(model, raw):
    lam = raw["lam"]
    dp = Lottery.constant(model.states, raw["p"])
    d1 = _U(model, raw["P"]) - _U(model, raw["Q"])
    d2 = _U(model, mix_lotteries(lam, raw["P"], dp)) - _U(
        model, mix_lotteries(lam, raw["Q"], dp)
    )
    return _iff_violation(d1, d2)


def _viol_psr(model, raw):
    lam = raw["lam"]
    f, g = raw["f"], raw["g"]
    uf, ug = _U(model, Lottery.dirac(f)), _U(model, Lottery.dirac(g))
    if uf < ug:
        f, g, uf, ug = g, f, ug, uf
    u_mix = _U(model, Lottery.dirac(mix_acts(lam, f, g)))
    part1 = max(0.0, ug - u_mix)
    pbar = constant_act(model.states, raw["p"])
    e1 = _U(model, Lottery.dirac(mix_acts(lam, f, pbar))) - _U(
        model, Lottery.dirac(mix_acts(lam, g, pbar))
    )
    part2 = _iff_violation(uf - ug, e1)
    return max(part1, part2)


# trial ingredient generators


def _gen_fsd(model, sampler):
    P = sampler.lottery()
    drops = sampler.rng.uniform(0.0, 50.0, P.payoff_matrix.shape)
    return {"P": P, "Q": Lottery(model.states, P.probs, P.payoff_matrix - drops)}


def _gen_timing(model, sampler):
    return {
        "kappa": sampler.uniform(),
        "lam": sampler.uniform(),
        "f": sampler.act(),
        "g": sampler.act(),
        "R": sampler.lottery(),
    }


def _gen_timing_constant(model, sampler):
    raw = _gen_timing(model, sampler)
    raw["g"] = constant_act(model.states, sampler.payoff())
    return raw


def _gen_timing_comonotone(model, sampler):
    raw = _gen_timing(model, sampler)
    f = raw["f"]
    n = len(model.states)
    values = np.sort(sampler.rng.uniform(sampler.low, sampler.high, n))
    if n > 1 and sampler.rng.random() < 0.25:
        i = int(sampler.rng.integers(n - 1))
        values[i + 1] = values[i]  # ties count as comonotone
    g = np.empty(n)
    g[np.argsort(f.payoffs, kind="stable")] = values
    raw["g"] = UtilityAct(model.states, g)
    return raw


def _gen_pair_mix(model, sampler):
    P, Q = sampler.pair()
    return {"lam": sampler.uniform(), "P": P, "Q": Q}


def _gen_ica(model, sampler):
    raw = _gen_pair_mix(model, sampler)
    raw["p"] = sampler.payoff()
    raw["q"] = sampler.payoff()
    return raw


def _gen_sica(model, sampler):
    raw = _gen_pair_mix(model, sampler)
    raw["p"] = sampler.payoff()
    return raw


def _gen_psr(model, sampler):
    return {
        "lam": sampler.uniform(),
        "f": sampler.act(),
        "g": sampler.act(),
        "p": sampler.payoff(),
    }


_AXIOM_TABLE = {
    "A2-FSD": (_gen_fsd, _viol_fsd),
    "A3-aepr": (_gen_timing, _viol_aepr),
    "A4-imtc": (_gen_timing_constant, _viol_imt),
    "A5-eaar": (_gen_pair_mix, _viol_eaar),
    "A6-ica": (_gen_ica, _viol_ica),
    "A-imtcm": (_gen_timing_comonotone, _viol_imt),
    "A-imt": (_gen_timing, _viol_imt),
    "A-sica": (_gen_sica, _viol_sica),
    "A-eapr": (_gen_pair_mix, _viol_eapr),
    "A-psr": (_gen_psr, _viol_psr),
}


def _check_nondegeneracy(model, sampler, n) -> AxiomReport:
    """Existence of a strict ranking; completeness, transitivity, and
    continuity hold identically for any real-valued evaluator."""
    probes = [
        (Lottery.constant(model.states, 1.0), Lottery.constant(model.states, 0.0))
    ]
    for k in range(n):
        P, Q = probes[k] if k < len(probes) else sampler.pair()
        if abs(_U(model, P) - _U(model, Q)) > TRIAL_TOL:
            return AxiomReport("A1-nondegeneracy", True, None, k + 1)
    return AxiomReport(
        "A1-nondegeneracy",
        False,
        {"note": f"no strict ranking found in {n} trials"},
        n,
    )


def check_axiom(model: CapModel, axiom_id: str, sampler, n: int = 1000) -> AxiomReport:
    """Run n seeded trials of the axiom and report the first violation."""
    if axiom_id == "A1-nondegeneracy":
        return _check_nondegeneracy(model, sampler, n)
    if axiom_id not in _AXIOM_TABLE:
        raise ValueError(f"unknown axiom id {axiom_id!r}; expected one of {AXIOM_IDS}")
    gen, viol = _AXIOM_TABLE[axiom_id]
    for k in range(n):
        raw = gen(model, sampler)
        v = viol(model, raw)
        if v > TRIAL_TOL:
            witness = _serialize_raw(raw)
            witness["violation"] = v
            return AxiomReport(axiom_id, False, witness, k + 1)
    return AxiomReport(axiom_id, True, None, n)


def recheck_witness(
    model: CapModel, axiom_id: str, witness: dict, tol: float = RECHECK_TOL
) -> tuple[bool, float]:
    """Re-verify a stored witness by direct evaluation at a tighter
    tolerance; returns (still_violated, magnitude)."""
    if axiom_id not in _AXIOM_TABLE:
        raise ValueError(f"unknown axiom id {axiom_id!r}; expected one of {AXIOM_IDS}")
    raw = _deserialize_raw(model.states, witness)
    magnitude = _AXIOM_TABLE[axiom_id][1](model, raw)
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
    preferring f1 over f2 forces preferring f3 over f4."""
    require_5051_box(Msets)
    model = CapModel(
        STATES_4, FiniteFamily([(M, 0.0) for M in Msets]), "dual_self"
    )
    aux = auxiliary_acts()
    g, h = aux["g"], aux["h"]
    ug = _U(model, Lottery.dirac(g))
    uh = _U(model, Lottery.dirac(h))
    trials = 0
    alphas = [0.0, 0.25, 0.5, 0.75, 1.0] + [sampler.uniform() for _ in range(3)]
    for alpha in alphas:
        trials += 1
        mixed = _U(model, Lottery.dirac(mix_acts(alpha, g, h)))
        gap = abs(mixed - (alpha * ug + (1.0 - alpha) * uh))
        if gap > TRIAL_TOL:
            return AxiomReport(
                "machina-5051-dual-self",
                False,
                {"alpha": alpha, "gap": gap, "kind": "affinity"},
                trials,
            )
    acts = acts_5051()
    u = {k: _U(model, Lottery.dirac(a)) for k, a in acts.items()}
    trials += 1
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
