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
candidate on a batch of zero-padded lotteries, and ``evaluate_many`` adds
each row's perceptions; a single ``evaluate`` or ``evaluate_value`` is a
batch of one, so a candidate's score does not depend on the batch it is
scored in.  On a parametric family each variant's score is concave and
piecewise linear in theta, so the min variants take the grid minimum,
which a concave score attains at a corner.
The max variants take the grid maximum where a supergradient at the best
grid point certifies it as the box optimum (``_certified``, vectorised
over a batch), and solve the score's epigraph LP over the whole box with
the package's simplex kernel, one lottery at a time, only where the
certificate fails.  ``_values`` holds this rule for every caller;
``evaluate_many`` reads each row's perception list from the same scores,
so the list holds the LP's optimum only on a row the certificate rejects,
and ``evaluate`` is its batch of one.

Each formula is computed once: ``_meu`` is the MEU kernel of every
candidate row, and ``ParametricFamily._template`` is the only evaluation
of a parametric template, for the grid and for any theta alike.

Values are utils throughout; the certainty equivalent of a lottery equals
its value.
"""

from __future__ import annotations

import bisect
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
    """Zero-padded (B, A) probabilities and (B, A, n_states) payoffs of
    B >= 1 lotteries given as ``(probs, payoffs)`` pairs.

    Each pair is checked as ``Lottery`` checks it: payoffs of the right
    shape and finite, probabilities positive and summing to 1 within 1e-12.
    Identical payoff rows are not merged.
    """
    pairs = tuple(zip(*lotteries))
    if not pairs:
        raise ValueError("stack_lotteries needs at least one lottery")
    probs_list, payoffs_list = pairs
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


def _meu(stacked: np.ndarray, offsets: np.ndarray, payoff_matrix: np.ndarray) -> np.ndarray:
    """(n_candidates, n_acts) matrix of minimum expected payoffs.  ``einsum``
    sums each entry over the states in one order whatever the number of
    vertices or acts, so that, unlike a BLAS product, it rounds a row alike
    in any batch."""
    dots = np.einsum("vs,ns->vn", stacked, payoff_matrix)
    return np.minimum.reduceat(dots, offsets, axis=0)


class _Candidates:
    """Candidate belief sets with costs: candidate i costs ``costs[i]``, and
    its vertices are the rows of ``_stacked`` from ``_offsets[i]`` up to the
    next offset."""

    __slots__ = ()

    def meu_matrix(self, payoff_matrix: np.ndarray) -> np.ndarray:
        return _meu(self._stacked, self._offsets, payoff_matrix)


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
    vertex_coefs[i]``; cost(theta) = ``cost_base + cost_coefs . theta``,
    clipped at 0.  Vertices must be valid priors at every grid point, which
    (entries being affine in theta) makes them valid on the whole box.  The
    candidates are the members at the grid points ``thetas``, in
    lexicographic order.  Only ``_template`` evaluates the template, its
    costs through ``_costs``, which ``cost_at`` calls alone; every cost is
    clipped by ``np.maximum(cost, 0.0)``.  ``einsum`` sums each vertex entry
    and each cost in one order whatever the number of thetas, so at a grid
    point ``member_at``, ``cost_at`` and ``meu_at`` equal the grid bit for
    bit.  ``to_finite`` holds the grid's own members and costs.
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
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "vertex_base", _readonly(base))
        object.__setattr__(self, "vertex_coefs", _readonly(coefs))
        object.__setattr__(self, "cost_base", float(cost_base))
        object.__setattr__(self, "cost_coefs", _readonly(cvec))

        # both ends are on every axis, so the grid holds the 2^k corners
        axis = np.linspace(0.0, 1.0, max(grid_resolution, 2))
        thetas = np.stack(np.meshgrid(*([axis] * k), indexing="ij"), axis=-1).reshape(-1, k)
        verts, costs = self._template(thetas)
        sum_errors = np.abs(verts.sum(axis=2) - 1.0)
        if sum_errors.max() > 1e-12 or verts.min() < -1e-12:
            # the grid point with the worst row-sum error or negative entry
            bad = int(np.argmax(np.maximum(sum_errors.max(axis=1), -verts.min(axis=(1, 2)))))
            raise ValueError(
                f"template yields invalid priors at theta={thetas[bad].tolist()}"
            )
        if costs.min() < -GROUNDED_TOL:
            raise ValueError(f"cost goes negative on the grid ({costs.min()})")
        if costs.min() > GROUNDED_TOL:
            raise ValueError(
                f"cost not grounded: minimum over grid is {costs.min()}, not 0"
            )

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

    def _template(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """Vertex blocks (n, n_vertices, n_states) and unclipped costs of
        the members at the n rows of ``thetas``."""
        thetas = np.array(thetas, dtype=float, ndmin=2)
        verts = self.vertex_base + np.einsum("ck,kvn->cvn", thetas, self.vertex_coefs)
        return verts, self._costs(thetas)

    def _costs(self, thetas: np.ndarray) -> np.ndarray:
        """The template's unclipped costs at the rows of a 2-D ``thetas``."""
        return self.cost_base + np.einsum("ck,k->c", thetas, self.cost_coefs)

    def meu_at(self, thetas, payoff_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``meu_matrix`` and ``costs`` of the members at the rows of
        ``thetas``."""
        verts, costs = self._template(thetas)
        n, n_vertices, n_states = verts.shape
        meu = _meu(verts.reshape(-1, n_states), np.arange(n) * n_vertices, payoff_matrix)
        return meu, np.maximum(costs, 0.0)

    def vertex_matrix_at(self, theta) -> np.ndarray:
        return self._template(theta)[0][0]

    def member_at(self, theta) -> BeliefSet:
        return BeliefSet(self.states, self.vertex_matrix_at(theta))

    def cost_at(self, theta) -> float:
        return float(np.maximum(self._costs(np.array(theta, dtype=float, ndmin=2)), 0.0)[0])

    def to_finite(self) -> FiniteFamily:
        """The grid as a finite family; the grid holds the box corners."""
        blocks = self._stacked.reshape(len(self.thetas), -1, len(self.states))
        return FiniteFamily([(BeliefSet(self.states, v), c) for v, c in zip(blocks, self.costs)])


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
    eps_opt = 1e-9 * max(1, |value|) of the optimum.  On a parametric family
    these are the grid points within eps_opt of the value, plus, for a max
    variant on a lottery whose grid optimum the certificate rejects, the
    epigraph LP's theta* when it is off the grid and within eps_opt.  A
    certified optimum can lie on a face of optimal thetas that reaches off
    the grid; the list then holds only that face's grid points.
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
    return theta, float(probs @ vals.min(axis=0)) + _COST_SIGN[model.variant] * family.cost_at(theta)


def _with_lp(value: float, lp) -> float:
    """The LP's score when it beats the best candidate's ``value`` by more
    than eps_opt, else ``value``.  The only rule that chooses between the
    two, applied by ``_values`` to the rows that ``_certified`` rejects, for
    ``evaluate_many``, ``evaluate_values`` and their batches of one alike; a
    certified row keeps its grid value and lists no LP theta*."""
    return lp[1] if lp[1] > value + 1e-9 * max(1.0, abs(value)) else value


def _certified(
    model: CapModel, probs: np.ndarray, payoffs: np.ndarray, best: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Mask of the B zero-padded lotteries whose best grid point
    theta_g = ``thetas[best]``, of score ``values``, is the max variant's
    box optimum within eps_opt / 4, eps_opt = 1e-9 * max(1, |value|).

    The score f(theta) = sum_m p_m min_v (a_vm + b_vm . theta) + s * max(cost(theta), 0)
    has s = ``_COST_SIGN`` <= 0, so clipping only lowers it: f <= f_lin,
    the same sum with the unclipped cost, and f_lin(theta_g) = f(theta_g)
    when cost(theta_g) >= 0.  Take tau = eps_opt / (4(k + 1)) and, at each
    atom, one vertex v* whose piece at theta_g is within tau of the atom's
    minimum; such a piece bounds the minimum from above everywhere, so
    with g = s * cost_coefs + sum_m p_m b_v*m, for every theta in the box
        f(theta) <= f_lin(theta) <= f(theta_g) + tau + g . (theta - theta_g)
                 <= f(theta_g) + (k + 1) tau = f(theta_g) + eps_opt / 4
    whenever g_i <= tau where theta_i = 0, g_i >= -tau where theta_i = 1
    and |g_i| <= tau elsewhere (Rockafellar 1970, *Convex Analysis*, Thm
    27.4, with a tolerance).  Then the epigraph LP cannot beat the grid by
    eps_opt, so ``_with_lp`` would keep ``values``.  Any near-active vertex
    gives a valid bound; among them each atom takes the one of least slope
    along the inward direction d (d_i = -1 where theta_i = 1, else +1),
    so the tie tolerance moves the hit rate, never soundness.  Padding
    atoms have p_m = 0 and add nothing.
    """
    family = model.family
    (n_rows, n_atoms), k = probs.shape, family.n_params
    thetas = family.thetas[best]
    blocks = family._stacked.reshape(len(family.thetas), -1, len(family.states))[best]
    pieces = np.einsum("bvs,bas->bva", blocks, payoffs)
    slopes = np.einsum("kvs,bas->bkva", family.vertex_coefs, payoffs)
    tau = 1e-9 * np.maximum(1.0, np.abs(values))[:, None] / (4 * (k + 1))
    inward = np.where(thetas < 1.0, 1.0, -1.0)
    along = np.einsum("bk,bkva->bva", inward, slopes)
    along[pieces > pieces.min(axis=1, keepdims=True) + tau[:, :, None]] = np.inf
    chosen = slopes[np.arange(n_rows)[:, None], :, along.argmin(axis=1), np.arange(n_atoms)]
    g = _COST_SIGN[model.variant] * family.cost_coefs + np.einsum("ba,bak->bk", probs, chosen)
    # g_i d_i <= tau where theta_i is 0 or 1, and |g_i| <= tau inside
    slack = np.where((thetas > 0.0) & (thetas < 1.0), np.abs(g), inward * g)
    return (slack <= tau).all(axis=1) & (family._costs(thetas) >= 0.0)


def _values(model: CapModel, probs: np.ndarray, payoffs: np.ndarray):
    """Scores, values and LP optima of one chunk of B zero-padded lotteries.

    Returns the (n_candidates, B) candidate scores, the B values, and a dict
    from row to the ``(theta, score)`` of each epigraph LP solved.  A value
    is the best candidate's score, which the max variants on a parametric
    family keep where ``_certified`` proves it the box optimum, and
    otherwise pass to ``_with_lp`` with the LP over the row's atoms of
    positive probability.  The min variants need no LP: a concave score
    attains its minimum over the box at a corner, and the grid holds every
    corner."""
    scores = _scores(model, probs, payoffs)
    if not _IS_MAX[model.variant]:
        return scores, scores.min(axis=0), {}
    values, lps = scores.max(axis=0), {}
    if model.is_parametric:
        best = np.argmax(scores, axis=0)
        for i in np.flatnonzero(~_certified(model, probs, payoffs, best, values)):
            real = probs[i] > 0.0
            lps[i] = _parametric_lp_max(model, probs[i, real], payoffs[i, real])
            values[i] = _with_lp(values[i], lps[i])
    return scores, values, lps


def _results(model: CapModel, scores: np.ndarray, values: np.ndarray, lps: dict) -> list:
    """``EvaluationResult`` of each row of one ``_values`` chunk: its value,
    the candidates within eps_opt of it, and the LP's theta* where
    ``_values`` solved the LP on the row and theta* is off the grid and
    within eps_opt.  The only perception rule, for ``evaluate`` and
    ``evaluate_many`` alike.  The grid is in lexicographic order, so a
    row's grid points need sorting only when theta* joins them."""
    vals = values.tolist()
    eps = [1e-9 * max(1.0, abs(v)) for v in vals]
    if _IS_MAX[model.variant]:
        near = scores >= np.array([v - e for v, e in zip(vals, eps)])
    else:
        near = scores <= np.array([v + e for v, e in zip(vals, eps)])
    rows, keep = np.nonzero(near.T)  # row by row, each row's candidates in order
    rows = rows.tolist()
    if isinstance(model.family, FiniteFamily):
        tags = keep.tolist()
    else:
        tags = list(map(tuple, model.family.thetas[keep].tolist()))
    results, start = [], 0
    for i, value in enumerate(vals):
        end = bisect.bisect_right(rows, i, start)
        perceptions, start = tags[start:end], end
        if i in lps and lps[i][1] >= value - eps[i]:
            t_star = tuple(lps[i][0].tolist())
            if all(max(abs(a - b) for a, b in zip(t_star, p)) > 1e-12 for p in perceptions):
                perceptions.append(t_star)
                perceptions.sort()
        results.append(EvaluationResult(value, value, tuple(perceptions)))
    return results


def _chunks(model: CapModel, probs, payoffs):
    """``_values`` of B lotteries held as zero-padded arrays, one kernel
    chunk at a time, so that the vertex-by-atom products stay small."""
    probs = np.asarray(probs, dtype=float)
    payoffs = np.asarray(payoffs, dtype=float)
    if payoffs.ndim != 3 or payoffs.shape[2] != len(model.states) or probs.shape != payoffs.shape[:2]:
        raise DimensionMismatchError(
            f"expected probs (B, A) and payoffs (B, A, {len(model.states)}), "
            f"got {probs.shape} and {payoffs.shape}"
        )
    step = max(1, _KERNEL_ENTRIES // (len(model.family._stacked) * max(1, probs.shape[1])))
    for i in range(0, max(1, len(probs)), step):
        yield _values(model, probs[i : i + step], payoffs[i : i + step])


def evaluate_many(model: CapModel, probs, payoffs) -> list[EvaluationResult]:
    """``evaluate`` of B lotteries held as arrays, as ``evaluate_values``
    takes them: ``probs`` of shape (B, A) and ``payoffs`` of shape
    (B, A, n_states), zero-padded.  Each kernel chunk is one ``_values``
    call.  Every result equals ``evaluate`` of the row's lottery bit for
    bit when the row has no two identical atoms, which ``Lottery`` would
    merge."""
    return [result for chunk in _chunks(model, probs, payoffs) for result in _results(model, *chunk)]


def evaluate(model: CapModel, P: Lottery) -> EvaluationResult:
    """Value of the lottery under the model, with near-optimal perceptions:
    ``evaluate_many`` on a batch of one."""
    _check_same_states(model, P)
    return _results(model, *_values(model, P.probs[None], P.payoff_matrix[None]))[0]


def evaluate_value(model: CapModel, P: Lottery) -> float:
    """Fast path returning only the value (used by sampling-heavy callers);
    it equals ``evaluate``'s value."""
    _check_same_states(model, P)
    return float(_values(model, P.probs[None], P.payoff_matrix[None])[1][0])


def evaluate_values(model: CapModel, probs, payoffs) -> np.ndarray:
    """Values of B lotteries held as arrays: ``probs`` of shape (B, A) and
    ``payoffs`` of shape (B, A, n_states).

    Rows with fewer atoms are padded with probability 0 (and finite
    payoffs, such as 0).  The arrays are not checked as ``Lottery`` checks
    them; ``stack_lotteries`` builds checked ones.  Every row's candidates
    are scored by one kernel, in chunks, and ``_values`` certifies each
    chunk's best candidates, so the max variants on a parametric family
    solve the LP only on the rows the certificate rejects.  Every value
    equals ``evaluate_value`` of the row's lottery bit for bit when the
    row has no two identical atoms, which ``Lottery`` would merge.
    """
    return np.concatenate([values for _, values, _ in _chunks(model, probs, payoffs)])


def certainty_equivalent(model: CapModel, P: Lottery) -> float:
    """Constant utility level indifferent to P; equals the value in utils."""
    return evaluate(model, P).value
