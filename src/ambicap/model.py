"""Evaluator variants over lotteries of utility acts.

A model couples a perception family (finitely many belief sets with costs,
or an affine parametric template over theta in [0,1]^k) with one of five
functional forms:

    cap            max over family of (expected MEU - cost)
    cautious       min over family of (expected MEU + cost)
    dual_self      max over family of expected MEU (costs must be zero)
    double_maxmin  min over family of expected MEU (costs must be zero)
    choquet        like cap, but every member must be the core of a convex
                   capacity, so its MEU is that capacity's Choquet integral

Every value is exact.  A family is a list of candidate belief sets with
costs: a finite family's members, or a parametric family's grid points,
which hold every box corner.  One kernel, ``evaluate_values``, scores every
candidate on a batch of zero-padded lotteries; a single ``evaluate`` or
``evaluate_value`` is its batch of one, so a candidate's score does not
depend on the batch it is scored in.  On a parametric family each
variant's score is concave and piecewise linear in theta, so the min
variants take the grid minimum, which a concave score attains at a corner,
and the max variants then solve the score's epigraph LP over the whole box
with the package's simplex kernel, one lottery at a time.

Values are utils throughout; the certainty equivalent of a lottery equals
its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    MAX_PIVOTS,
    BeliefSet,
    ConvexCapacity,
    DimensionMismatchError,
    StateSpace,
    UtilityAct,
    _check_same_states,
    _readonly,
    _require_supermodular,
    _simplex,
    core_of_capacity,
    is_subset,
)

GROUNDED_TOL = 1e-9
_KERNEL_ENTRIES = 1 << 16

VARIANTS = ("cap", "cautious", "dual_self", "double_maxmin", "choquet")

# score = expected MEU + cost_sign * cost, optimized in opt direction
_IS_MAX = {
    "cap": True,
    "dual_self": True,
    "choquet": True,
    "cautious": False,
    "double_maxmin": False,
}
_COST_SIGN = {
    "cap": -1.0,
    "choquet": -1.0,
    "cautious": 1.0,
    "dual_self": 0.0,
    "double_maxmin": 0.0,
}


def constant_act(states: StateSpace, t: float) -> UtilityAct:
    return UtilityAct(states, np.full(len(states), float(t)))


class Lottery:
    """Finitely supported distribution over utility acts: ``probs[i]`` is
    the probability of the act whose payoffs are ``payoff_matrix[i]``.

    Identical payoff rows are merged at construction, in order of first
    appearance, with their probabilities summed in that order, so two
    lotteries that denote the same distribution have equal arrays.
    """

    __slots__ = ("states", "probs", "payoff_matrix")

    def __init__(self, states: StateSpace, probs, payoffs):
        probs = np.array(probs, dtype=float).reshape(-1)
        payoffs = np.array(payoffs, dtype=float)
        if probs.size == 0:
            raise ValueError("lottery needs at least one atom")
        if payoffs.shape != (probs.size, len(states)):
            raise DimensionMismatchError(
                f"lottery payoffs have shape {payoffs.shape}, "
                f"expected {(probs.size, len(states))}"
            )
        if not np.isfinite(payoffs).all():
            raise ValueError("act payoffs must be finite")
        if not probs.min() > 0.0:
            raise ValueError(f"atom probability {probs.min()} must be positive")
        raw, width = payoffs.tobytes(), payoffs.itemsize * len(states)
        keys = [raw[i : i + width] for i in range(0, len(raw), width)]
        unique = dict.fromkeys(keys)  # rows byte for byte, in order of first appearance
        if len(unique) < len(keys):
            slot = {key: j for j, key in enumerate(unique)}
            probs = np.bincount([slot[key] for key in keys], weights=probs)
            payoffs = payoffs[[keys.index(key) for key in unique]]
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities sum to {probs.sum()}, not 1")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "probs", _readonly(probs))
        object.__setattr__(self, "payoff_matrix", _readonly(payoffs))

    def __setattr__(self, name, value):
        raise AttributeError("Lottery is immutable")

    @classmethod
    def dirac(cls, act: UtilityAct) -> "Lottery":
        return cls(act.states, [1.0], [act.payoffs])

    @classmethod
    def constant(cls, states: StateSpace, t: float) -> "Lottery":
        return cls(states, [1.0], np.full((1, len(states)), float(t)))

    def __len__(self):
        return self.probs.size

    def __repr__(self):
        body = ", ".join(
            f"{p:g}: {row}" for p, row in zip(self.probs.tolist(), self.payoff_matrix.tolist())
        )
        return f"Lottery({{{body}}})"


def serialize_lottery(P: Lottery) -> list:
    """JSON-ready ``[[probability, payoffs], ...]`` form of a lottery."""
    return [list(atom) for atom in zip(P.probs.tolist(), P.payoff_matrix.tolist())]


def stack_lotteries(lotteries, n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded (B, A) probabilities and (B, A, n_states) payoffs of B
    lotteries given as ``(probs, payoffs)`` pairs.

    Each pair is checked as ``Lottery`` checks it: payoffs of the right
    shape and finite, probabilities positive and summing to 1 within 1e-12.
    Identical payoff rows are not merged.
    """
    probs_list, payoffs_list = zip(*lotteries)
    sizes = np.array([len(p) for p in probs_list])
    if [np.shape(x) for x in payoffs_list] != [(a, n_states) for a in sizes.tolist()]:
        raise DimensionMismatchError(
            f"lottery payoffs must have one row of {n_states} per atom"
        )
    real = np.arange(sizes.max()) < sizes[:, None]
    probs = np.zeros(real.shape)
    payoffs = np.zeros((*real.shape, n_states))
    probs[real] = np.concatenate(probs_list)
    payoffs[real] = np.concatenate(payoffs_list)
    if not np.isfinite(payoffs).all():
        raise ValueError("act payoffs must be finite")
    smallest = probs[real].min()
    if not smallest > 0.0:
        raise ValueError(f"atom probability {smallest} must be positive")
    sums = probs.sum(axis=1)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[worst] - 1.0) > 1e-12:
        raise ValueError(f"atom probabilities sum to {sums[worst]}, not 1")
    return probs, payoffs


def mix_lotteries(lam: float, P: Lottery, Q: Lottery) -> Lottery:
    """Ex ante mixture: atom-wise union with scaled probabilities."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixture weight {lam} outside [0, 1]")
    _check_same_states(P, Q)
    probs = np.concatenate((lam * P.probs, (1.0 - lam) * Q.probs))
    payoffs = np.concatenate((P.payoff_matrix, Q.payoff_matrix))
    keep = probs > 0.0  # a tiny lam can underflow
    return Lottery(P.states, probs[keep], payoffs[keep])


def mix_acts(lam: float, f: UtilityAct, g: UtilityAct) -> UtilityAct:
    """Ex post (statewise) mixture of payoff vectors."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixture weight {lam} outside [0, 1]")
    _check_same_states(f, g)
    return UtilityAct(f.states, lam * f.payoffs + (1.0 - lam) * g.payoffs)


class _Candidates:
    """Candidate belief sets with costs: candidate i costs ``costs[i]``, and
    its vertices are the rows of ``_stacked`` from ``_offsets[i]`` up to the
    next offset."""

    __slots__ = ()

    def meu_matrix(self, payoff_matrix: np.ndarray) -> np.ndarray:
        """(n_candidates, n_acts) matrix of minimum expected payoffs.

        ``einsum`` sums each entry over the states in one order whatever the
        number of acts.  A BLAS product does not, so batched and single
        values would differ in their last bits.
        """
        dots = np.einsum("vs,ns->vn", self._stacked, payoff_matrix)
        return np.minimum.reduceat(dots, self._offsets, axis=0)


class FiniteFamily(_Candidates):
    """Finite list of (BeliefSet, cost) pairs with a grounded cost."""

    __slots__ = ("states", "members", "costs", "_stacked", "_offsets")

    def __init__(self, members):
        members = [(M, float(c)) for M, c in members]
        if not members:
            raise ValueError("perception family needs at least one member")
        states = members[0][0].states
        for M, c in members:
            if M.states != states:
                raise DimensionMismatchError("family members mix state spaces")
            if not math.isfinite(c) or c < -GROUNDED_TOL:
                raise ValueError(f"cost {c} must be a nonnegative real")
        costs = np.maximum([c for _, c in members], 0.0)
        if costs.min() > GROUNDED_TOL:
            raise ValueError(
                f"cost not grounded: minimum over family is {costs.min()}, not 0"
            )
        sets = [M for M, _ in members]
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "members", tuple(zip(sets, costs.tolist())))
        object.__setattr__(self, "costs", _readonly(costs))
        object.__setattr__(
            self, "_stacked", _readonly(np.vstack([M.matrix for M in sets]))
        )
        sizes = [len(M) for M in sets]
        offsets = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.intp)
        object.__setattr__(self, "_offsets", offsets)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteFamily is immutable")

    @property
    def sets(self) -> tuple[BeliefSet, ...]:
        return tuple(M for M, _ in self.members)

    def __len__(self):
        return len(self.members)


class ParametricFamily(_Candidates):
    """Affine vertex template over theta in [0,1]^k with an affine cost.

    Member(theta) has vertex matrix ``vertex_base + sum_i theta_i *
    vertex_coefs[i]``; cost(theta) = ``cost_base + cost_coefs . theta``.
    Vertices must be valid priors at every grid point, which (entries being
    affine in theta) makes them valid on the whole box.  The candidates are
    the members at the grid points ``thetas``, in lexicographic order.
    """

    __slots__ = (
        "states",
        "vertex_base",
        "vertex_coefs",
        "cost_base",
        "cost_coefs",
        "grid_resolution",
        "param_names",
        "thetas",
        "costs",
        "_stacked",
        "_offsets",
    )

    def __init__(
        self,
        states: StateSpace,
        vertex_base,
        vertex_coefs,
        cost_base: float,
        cost_coefs,
        grid_resolution: int,
        param_names=None,
    ):
        base = np.asarray(vertex_base, dtype=float)
        coefs = np.asarray(vertex_coefs, dtype=float)
        if base.ndim != 2 or base.shape[1] != len(states):
            raise DimensionMismatchError("vertex_base must be (n_vertices, n_states)")
        if coefs.ndim != 3 or coefs.shape[1:] != base.shape:
            raise DimensionMismatchError(
                "vertex_coefs must be (n_params, n_vertices, n_states)"
            )
        k = coefs.shape[0]
        if k < 1:
            raise ValueError("parametric family needs at least one parameter")
        cvec = np.asarray(cost_coefs, dtype=float).reshape(-1)
        if cvec.size != k:
            raise DimensionMismatchError("cost_coefs length must match n_params")
        if grid_resolution < 1:
            raise ValueError("grid_resolution must be a positive integer")
        if param_names is None:
            param_names = tuple(f"theta{i}" for i in range(k))
        param_names = tuple(str(s) for s in param_names)
        if len(param_names) != k or len(set(param_names)) != k:
            raise ValueError("param_names must be distinct, one per parameter")

        # both ends are on every axis, so the grid holds the 2^k corners
        axis = np.linspace(0.0, 1.0, max(grid_resolution, 2))
        thetas = np.stack(np.meshgrid(*([axis] * k), indexing="ij"), axis=-1).reshape(-1, k)

        verts = base[None] + np.einsum("ck,kvn->cvn", thetas, coefs)
        sums = verts.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > 1e-12) or verts.min() < -1e-12:
            bad = int(np.argmax(np.abs(sums - 1.0).max(axis=1)))
            raise ValueError(
                f"template yields invalid priors at theta={thetas[bad].tolist()}"
            )
        costs = float(cost_base) + thetas @ cvec
        if costs.min() < -GROUNDED_TOL:
            raise ValueError(f"cost goes negative on the grid ({costs.min()})")
        if costs.min() > GROUNDED_TOL:
            raise ValueError(
                f"cost not grounded: minimum over grid is {costs.min()}, not 0"
            )

        object.__setattr__(self, "states", states)
        object.__setattr__(self, "vertex_base", _readonly(base))
        object.__setattr__(self, "vertex_coefs", _readonly(coefs))
        object.__setattr__(self, "cost_base", float(cost_base))
        object.__setattr__(self, "cost_coefs", _readonly(cvec))
        object.__setattr__(self, "grid_resolution", int(grid_resolution))
        object.__setattr__(self, "param_names", param_names)
        object.__setattr__(self, "thetas", _readonly(thetas))
        object.__setattr__(self, "costs", _readonly(np.maximum(costs, 0.0)))
        object.__setattr__(self, "_stacked", _readonly(verts.reshape(-1, len(states))))
        object.__setattr__(self, "_offsets", np.arange(len(thetas)) * base.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError("ParametricFamily is immutable")

    @property
    def n_params(self) -> int:
        return self.vertex_coefs.shape[0]

    def vertex_matrix_at(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        return self.vertex_base + np.tensordot(theta, self.vertex_coefs, axes=(0, 0))

    def member_at(self, theta) -> BeliefSet:
        return BeliefSet(self.states, self.vertex_matrix_at(theta))

    def cost_at(self, theta) -> float:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        return max(0.0, self.cost_base + float(self.cost_coefs @ theta))

    def to_finite(self) -> FiniteFamily:
        """Sample the family onto its grid, which holds the box corners."""
        return FiniteFamily(
            [(self.member_at(th), self.cost_at(th)) for th in self.thetas]
        )


def _lower_envelope_capacity(M: BeliefSet) -> ConvexCapacity:
    """nu(E) = min over vertices of mu(E), for every subset bitmask E."""
    n = len(M.states)
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)[None, :]) & 1
    values = (M.matrix @ bits.T.astype(float)).min(axis=0)
    values[0] = 0.0
    values[-1] = 1.0
    return ConvexCapacity(M.states, values)


class CapModel:
    """A perception family, a cost, and an evaluator variant."""

    __slots__ = ("states", "family", "variant")

    def __init__(self, states: StateSpace, family, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if family.states != states:
            raise DimensionMismatchError("family defined over a different state space")
        if variant in ("dual_self", "double_maxmin"):
            if np.max(family.costs) > GROUNDED_TOL:
                raise ValueError(f"{variant} requires all costs to be 0")
        if variant == "choquet":
            if not isinstance(family, FiniteFamily):
                raise ValueError("choquet variant requires a finite family of cores")
            # A member M is a core iff M = core(nu) for its lower envelope nu.
            # M is always inside core(nu): every mu in conv(M) has
            # mu(E) >= min over the vertices v of v(E) = nu(E).  So only the
            # other inclusion is checked.
            for M in family.sets:
                nu = _lower_envelope_capacity(M)
                try:
                    _require_supermodular(nu)
                except ValueError:
                    raise ValueError(
                        "family member is not the core of a supermodular capacity"
                    ) from None
                if not is_subset(core_of_capacity(nu), M):
                    raise ValueError("family member does not equal its envelope's core")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "variant", variant)

    def __setattr__(self, name, value):
        raise AttributeError("CapModel is immutable")

    @classmethod
    def from_capacities(cls, states: StateSpace, pairs) -> "CapModel":
        """Build the choquet variant from (ConvexCapacity, cost) pairs."""
        family = FiniteFamily([(core_of_capacity(nu), c) for nu, c in pairs])
        return cls(states, family, "choquet")

    @property
    def is_parametric(self) -> bool:
        return isinstance(self.family, ParametricFamily)


@dataclass(frozen=True)
class EvaluationResult:
    """Value, certainty equivalent, and near-optimal perceptions.

    ``optimal_perceptions`` lists family indices (finite families) or theta
    tuples (parametric families) whose score is within
    eps_opt = 1e-9 * max(1, |value|) of the optimum.
    """

    value: float
    certainty_equivalent: float
    optimal_perceptions: tuple


def _scores(model: CapModel, probs: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
    """(n_candidates, B) scores of B zero-padded lotteries.

    Atoms are summed left to right by ``add.accumulate``, so a padding atom
    adds an exact 0 and a row scores the same in any batch.
    """
    family = model.family
    n, width, n_states = payoffs.shape
    meu = family.meu_matrix(payoffs.reshape(n * width, n_states)).reshape(len(family.costs), n, width)
    expected = np.add.accumulate(meu * probs, axis=2)[..., -1]
    return expected + _COST_SIGN[model.variant] * family.costs[:, None]


def _parametric_lp_max(model: CapModel, probs: np.ndarray, payoffs: np.ndarray):
    """(theta, score) maximizing a max variant's score over the whole box
    for the lottery with atoms ``probs`` and payoff rows ``payoffs``.

    The score sum_m p_m min_v (a_vm + b_vm . theta) + cost_sign * cost(theta)
    is concave and piecewise linear, so its epigraph form
        max  p . t + cost_sign * c . theta
        s.t. t_m <= a_vm + b_vm . theta,  0 <= theta <= 1
    is an exact LP.  Each t_m is shifted by a floor below every value it can
    take (its atom's minimum payoff, or lower), so the origin with all
    slacks basic is feasible.  Payoffs and costs are divided by the largest
    payoff magnitude, so that the kernel's absolute pivot tolerance sits far
    above the rounding noise.  The score is recomputed at the optimum
    instead of read off the tableau.
    """
    family = model.family
    k, n_atoms = family.n_params, probs.size
    A0 = family.vertex_base @ payoffs.T
    AC = np.einsum("kvn,mn->kvm", family.vertex_coefs, payoffs)
    floor = np.minimum(payoffs.min(axis=1), A0.min(axis=0))
    scale = np.abs(payoffs).max() or 1.0
    n_pieces = A0.size
    rows, cols = n_pieces + k, k + n_atoms
    tab = np.zeros((rows + 1, cols + rows + 1))
    tab[:n_pieces, :k] = -AC.reshape(k, n_pieces).T / scale
    tab[:n_pieces, k:cols] = np.tile(np.eye(n_atoms), (A0.shape[0], 1))
    tab[:n_pieces, -1] = (A0 - floor).reshape(-1) / scale
    tab[n_pieces:rows, :k] = np.eye(k)
    tab[n_pieces:rows, -1] = 1.0
    tab[:rows, cols:-1] = np.eye(rows)
    tab[rows, :k] = _COST_SIGN[model.variant] * family.cost_coefs / scale
    tab[rows, k:cols] = probs
    theta = np.zeros(k)
    for row, col in enumerate(_simplex(tab, cols, MAX_PIVOTS)):
        if col < k:
            theta[col] = tab[row, -1]
    theta = np.clip(theta, 0.0, 1.0)
    vals = A0 + np.tensordot(theta, AC, axes=(0, 0))
    cost = family.cost_base + float(family.cost_coefs @ theta)
    return theta, float(probs @ vals.min(axis=0)) + _COST_SIGN[model.variant] * cost


def _with_lp(value: float, lp) -> float:
    """The LP's score when it beats the best candidate's ``value`` by more
    than eps_opt, else ``value``."""
    return lp[1] if lp[1] > value + 1e-9 * max(1.0, abs(value)) else value


def _solve(model: CapModel, P: Lottery):
    """(scores, value, lp) shared by ``evaluate`` and ``evaluate_value``.

    ``scores`` are the candidates' scores.  For the max variants on a
    parametric family, ``lp`` is the (theta, score) optimum of the exact LP,
    and ``_with_lp`` decides the value.  The min variants need no LP: a
    concave score attains its minimum over the box at a corner, and the
    grid holds every corner.
    """
    _check_same_states(model, P)
    scores = _scores(model, P.probs[None], P.payoff_matrix[None])[:, 0]
    sign = 1.0 if _IS_MAX[model.variant] else -1.0
    value = float(sign * np.max(sign * scores))
    if sign < 0.0 or not model.is_parametric:
        return scores, value, None
    lp = _parametric_lp_max(model, P.probs, P.payoff_matrix)
    return scores, _with_lp(value, lp), lp


def evaluate(model: CapModel, P: Lottery) -> EvaluationResult:
    """Value of the lottery under the model, with near-optimal perceptions."""
    scores, value, lp = _solve(model, P)
    sign = 1.0 if _IS_MAX[model.variant] else -1.0
    eps = 1e-9 * max(1.0, abs(value))
    keep = np.flatnonzero(sign * scores >= sign * value - eps)
    if isinstance(model.family, FiniteFamily):
        return EvaluationResult(value, value, tuple(int(i) for i in keep))

    perceptions = [tuple(float(x) for x in model.family.thetas[i]) for i in keep]
    if lp is not None and lp[1] >= value - eps:
        t_star = tuple(float(x) for x in lp[0])
        if all(max(abs(a - b) for a, b in zip(t_star, p)) > 1e-12 for p in perceptions):
            perceptions.append(t_star)
    return EvaluationResult(value, value, tuple(sorted(perceptions)))


def evaluate_value(model: CapModel, P: Lottery) -> float:
    """Fast path returning only the value (used by sampling-heavy callers)."""
    return _solve(model, P)[1]


def evaluate_values(model: CapModel, probs, payoffs) -> np.ndarray:
    """Values of B lotteries held as arrays: ``probs`` of shape (B, A) and
    ``payoffs`` of shape (B, A, n_states).

    Rows with fewer atoms are padded with probability 0 (and finite
    payoffs, such as 0).  The arrays are not checked as ``Lottery`` checks
    them; ``stack_lotteries`` builds checked ones.  Every row's candidates
    are scored by one kernel, in chunks; the max variants on a parametric
    family then solve the LP on each row's atoms of positive probability.
    Every value equals ``evaluate_value`` of the row's lottery bit for bit
    when the row has no two identical atoms, which ``Lottery`` would merge.
    """
    probs = np.asarray(probs, dtype=float)
    payoffs = np.asarray(payoffs, dtype=float)
    if payoffs.ndim != 3 or payoffs.shape[2] != len(model.states) or probs.shape != payoffs.shape[:2]:
        raise DimensionMismatchError(
            f"expected probs (B, A) and payoffs (B, A, {len(model.states)}), "
            f"got {probs.shape} and {payoffs.shape}"
        )
    sign = 1.0 if _IS_MAX[model.variant] else -1.0
    # rows per kernel call, so that the vertex-by-atom products stay small
    step = max(1, _KERNEL_ENTRIES // (len(model.family._stacked) * max(1, probs.shape[1])))
    values = np.concatenate([
        sign * np.max(sign * _scores(model, probs[i : i + step], payoffs[i : i + step]), axis=0)
        for i in range(0, max(1, len(probs)), step)
    ])
    if sign > 0.0 and model.is_parametric:
        for i, (p, x) in enumerate(zip(probs, payoffs)):
            values[i] = _with_lp(values[i], _parametric_lp_max(model, p[p > 0.0], x[p > 0.0]))
    return values


def certainty_equivalent(model: CapModel, P: Lottery) -> float:
    """Constant utility level indifferent to P; equals the value in utils."""
    return evaluate(model, P).value
