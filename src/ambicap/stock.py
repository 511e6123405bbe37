"""Stock models: the Machina 50-51 and reflection families, the Ellsberg
acts, the two-self quarter-slice family, and stored witnesses separating
the strengthened axioms from the base ones.

All numbers here are exact closed forms; evaluator values on these models
hit the displayed constants to float rounding because every objective is
affine in the family parameters and the box corners are always candidates.
"""

from __future__ import annotations

import numpy as np

from .geometry import BeliefSet, StateSpace, UtilityAct
from .model import CapModel, FiniteFamily, Lottery, ParametricFamily, serialize_lottery

P_5051 = 50.0 / 101.0
Q_5051 = 51.0 / 101.0

STATES_4 = StateSpace(["red", "blue", "green", "purple"])
STATES_3 = StateSpace(["s1", "s2", "s3"])

_SIGNS = [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def _box_family(
    states: StateSpace,
    red_center: float,
    green_center: float,
    cost_scale: float,
    grid_resolution: int,
) -> ParametricFamily:
    """Product box: red mass in red_center*(1 +- beta), green likewise.

    The pair (red, blue) always carries mass 2*red_center and (green,
    purple) the complement; beta and gamma widen each interval from the
    center to its full range.  Cost is cost_scale*(2 - beta - gamma).
    """
    base = np.array(
        [[red_center, red_center, green_center, green_center]] * 4
    )
    beta_coef = np.array(
        [[s1 * red_center, -s1 * red_center, 0.0, 0.0] for s1, _ in _SIGNS]
    )
    gamma_coef = np.array(
        [[0.0, 0.0, s2 * green_center, -s2 * green_center] for _, s2 in _SIGNS]
    )
    return ParametricFamily(
        states,
        base,
        np.stack([beta_coef, gamma_coef]),
        cost_base=2.0 * cost_scale,
        cost_coefs=[-cost_scale, -cost_scale],
        grid_resolution=grid_resolution,
        param_names=("beta", "gamma"),
    )


def family_5051(grid_resolution: int = 11) -> ParametricFamily:
    """Nested boxes around (p/2, q/2) with p=50/101, cost 25*(2-beta-gamma)."""
    return _box_family(STATES_4, P_5051 / 2.0, Q_5051 / 2.0, 25.0, grid_resolution)


def family_reflection(grid_resolution: int = 11) -> ParametricFamily:
    """Nested boxes around (1/4, 1/4), cost 30*(2-beta-gamma)."""
    return _box_family(STATES_4, 0.25, 0.25, 30.0, grid_resolution)


def model_5051(grid_resolution: int = 11, variant: str = "cap") -> CapModel:
    return CapModel(STATES_4, family_5051(grid_resolution), variant)


def model_reflection(grid_resolution: int = 11, variant: str = "cap") -> CapModel:
    return CapModel(STATES_4, family_reflection(grid_resolution), variant)


def acts_5051() -> dict[str, UtilityAct]:
    return {
        "f1": UtilityAct(STATES_4, [200.0, 200.0, 100.0, 100.0]),
        "f2": UtilityAct(STATES_4, [200.0, 100.0, 200.0, 100.0]),
        "f3": UtilityAct(STATES_4, [300.0, 200.0, 100.0, 0.0]),
        "f4": UtilityAct(STATES_4, [300.0, 100.0, 200.0, 0.0]),
    }


def acts_reflection() -> dict[str, UtilityAct]:
    return {
        "f5": UtilityAct(STATES_4, [100.0, 200.0, 100.0, 0.0]),
        "f6": UtilityAct(STATES_4, [100.0, 100.0, 200.0, 0.0]),
        "f7": UtilityAct(STATES_4, [0.0, 200.0, 100.0, 100.0]),
        "f8": UtilityAct(STATES_4, [0.0, 100.0, 200.0, 100.0]),
    }


def acts_ellsberg() -> dict[str, UtilityAct]:
    """f9 bets on the known half; f10 is the ambiguous bet net of its
    unambiguous 50-util base, so its value isolates the ambiguity penalty."""
    return {
        "f9": UtilityAct(STATES_4, [100.0, 100.0, 0.0, 0.0]),
        "f10": UtilityAct(STATES_4, [-50.0, 50.0, 50.0, -50.0]),
    }


def auxiliary_acts() -> dict[str, UtilityAct]:
    """g, h, p with f1..f4 recoverable as their statewise mixtures."""
    return {
        "g": UtilityAct(STATES_4, [300.0, 300.0, 0.0, 0.0]),
        "h": UtilityAct(STATES_4, [300.0, 0.0, 300.0, 0.0]),
        "p": UtilityAct(STATES_4, [150.0, 150.0, 150.0, 150.0]),
    }


def quarter_slice_sets() -> tuple[BeliefSet, BeliefSet]:
    """M1 pins red at 1/4 and lets green roam [0, 1/2]; M2 swaps roles."""
    M1 = BeliefSet(
        STATES_4, [[0.25, 0.25, 0.0, 0.5], [0.25, 0.25, 0.5, 0.0]]
    )
    M2 = BeliefSet(
        STATES_4, [[0.0, 0.5, 0.25, 0.25], [0.5, 0.0, 0.25, 0.25]]
    )
    return M1, M2


def dual_self_model() -> CapModel:
    M1, M2 = quarter_slice_sets()
    family = FiniteFamily([(M1, 0.0), (M2, 0.0)])
    return CapModel(STATES_4, family, "dual_self")


def acts_dual_self() -> dict[str, UtilityAct]:
    acts = dict(acts_reflection())
    acts["f9"] = UtilityAct(STATES_4, [100.0, 100.0, 0.0, 0.0])
    acts["f10"] = UtilityAct(STATES_4, [0.0, 100.0, 100.0, 0.0])
    return acts


def eu_model(states: StateSpace, prior) -> CapModel:
    """Expected utility as a singleton zero-cost family."""
    family = FiniteFamily([(BeliefSet(states, [prior]), 0.0)])
    return CapModel(states, family, "cap")


def triangle_model() -> CapModel:
    """Singleton family whose member is strictly inside its envelope's core,
    so statewise mixing of comonotone acts can strictly help."""
    M = BeliefSet(
        STATES_3, [[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.2, 0.2, 0.6]]
    )
    return CapModel(STATES_3, FiniteFamily([(M, 0.0)]), "cap")


def random_box_5051_family(rng, n_members: int = 10, max_vertices: int = 4):
    """Belief sets inside the full 50-51 box (red+blue mass = 50/101)."""
    sets = []
    for _ in range(n_members):
        rows = []
        for _ in range(int(rng.integers(1, max_vertices + 1))):
            r = rng.uniform(0.0, P_5051)
            g = rng.uniform(0.0, Q_5051)
            rows.append([r, P_5051 - r, g, Q_5051 - g])
        sets.append(BeliefSet(STATES_4, rows))
    return sets


def stock_separations():
    """(model, axiom_id, witness) triples violating strengthened axioms.

    Every witness re-verifies by direct evaluation; magnitudes are large
    (0.04 to 24.8 utils), nowhere near tolerance noise.
    """
    f5051 = acts_5051()
    blue_bet = UtilityAct(STATES_4, [0.0, 100.0, 0.0, 0.0])
    red_bet = UtilityAct(STATES_4, [100.0, 0.0, 0.0, 0.0])
    green_bet = UtilityAct(STATES_4, [0.0, 0.0, 100.0, 0.0])
    R = Lottery.constant(STATES_4, 10.0)

    sica_witness = {
        "lam": 0.5,
        "P": serialize_lottery(Lottery.dirac(f5051["f2"])),
        "Q": serialize_lottery(Lottery.constant(STATES_4, 100.2)),
        "p": 0.0,
    }
    imt_witness = {
        "kappa": 0.5,
        "lam": 0.5,
        "f": blue_bet.payoffs.tolist(),
        "g": red_bet.payoffs.tolist(),
        "R": serialize_lottery(R),
    }
    imtcm_witness = {
        "kappa": 1.0,
        "lam": 0.5,
        "f": [2.0, 0.0, 1.0],
        "g": [10.0, 0.0, 1.0],
        "R": [[1.0, [0.0, 0.0, 0.0]]],
    }
    eapr_witness = {
        "lam": 0.5,
        "P": serialize_lottery(Lottery.dirac(blue_bet)),
        "Q": serialize_lottery(Lottery.dirac(green_bet)),
    }
    return [
        (model_5051(), "A-sica", sica_witness),
        (model_5051(), "A-imt", imt_witness),
        (model_reflection(), "A-imt", imt_witness),
        (triangle_model(), "A-imtcm", imtcm_witness),
        (dual_self_model(), "A-eapr", eapr_witness),
    ]
