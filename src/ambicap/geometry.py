"""Belief-set geometry over finite state spaces.

Belief sets are convex polytopes of probability vectors stored by their
vertices.  The minimum expected value of a payoff vector over a belief set
(its support function in the min convention) is exact: a linear functional
on a polytope attains its minimum at a vertex.  Convex capacities are stored
densely over subset bitmasks and give rise to cores and Choquet integrals.
One dense simplex kernel solves every linear program of the package: hull
membership here, the parametric evaluator and the cost estimate elsewhere.
"""

from __future__ import annotations

import itertools

import numpy as np

SUM_TOL = 1e-12
INCLUSION_TOL = 1e-9
SUPERMODULAR_TOL = 1e-12
MAX_CAPACITY_STATES = 12
MAX_CORE_STATES = 8
MAX_PIVOTS = 20000


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


class DimensionMismatchError(ValueError):
    """Operands are defined over different state spaces."""


class StateSpace:
    """Ordered finite set of state labels, at least two of them.

    The first label doubles as the reference state for payoff
    normalization conventions.
    """

    __slots__ = ("labels",)

    def __init__(self, labels):
        labels = tuple(str(x) for x in labels)
        if len(labels) < 2:
            raise ValueError("state space needs at least two states")
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be distinct")
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("StateSpace is immutable")

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return isinstance(other, StateSpace) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def __repr__(self):
        return f"StateSpace({list(self.labels)!r})"


def _check_same_states(a, b):
    if a.states != b.states:
        raise DimensionMismatchError(
            f"state spaces differ: {a.states!r} vs {b.states!r}"
        )


class Prior:
    """Probability vector over a state space."""

    __slots__ = ("states", "weights")

    def __init__(self, states: StateSpace, weights):
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.size != len(states):
            raise DimensionMismatchError(
                f"prior has {w.size} weights for {len(states)} states"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("prior weights must be finite")
        if w.min(initial=0.0) < -SUM_TOL:
            raise ValueError(f"negative prior weight {w.min()}")
        w = np.maximum(w, 0.0)  # scrub rounding dust from mixtures
        if abs(w.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"prior weights sum to {w.sum()}, not 1")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", _readonly(w))

    def __setattr__(self, name, value):
        raise AttributeError("Prior is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Prior)
            and self.states == other.states
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.states, self.weights.tobytes()))

    def __repr__(self):
        return f"Prior({self.weights.tolist()!r})"


class UtilityAct:
    """Vector of utility payoffs, one per state."""

    __slots__ = ("states", "payoffs")

    def __init__(self, states: StateSpace, payoffs):
        p = np.asarray(payoffs, dtype=float).reshape(-1)
        if p.size != len(states):
            raise DimensionMismatchError(
                f"act has {p.size} payoffs for {len(states)} states"
            )
        if not np.all(np.isfinite(p)):
            raise ValueError("act payoffs must be finite")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "payoffs", _readonly(p))

    def __setattr__(self, name, value):
        raise AttributeError("UtilityAct is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, UtilityAct)
            and self.states == other.states
            and np.array_equal(self.payoffs, other.payoffs)
        )

    def __hash__(self):
        return hash((self.states, self.payoffs.tobytes()))

    def __repr__(self):
        return f"UtilityAct({self.payoffs.tolist()!r})"


class BeliefSet:
    """Convex hull of finitely many priors; redundant vertices are allowed."""

    __slots__ = ("states", "matrix")

    def __init__(self, states: StateSpace, vertices):
        if isinstance(vertices, np.ndarray):
            rows = np.atleast_2d(np.asarray(vertices, dtype=float))
        else:
            vertices = list(vertices)
            if not vertices:
                raise ValueError("belief set needs at least one vertex")
            rows = np.vstack(
                [
                    v.weights if isinstance(v, Prior) else np.asarray(v, float)
                    for v in vertices
                ]
            )
        if rows.shape[0] == 0:
            raise ValueError("belief set needs at least one vertex")
        rows = rows.reshape(len(rows), -1)
        validated = np.maximum(rows, 0.0)  # scrub rounding dust, as Prior does
        # Prior's checks on every row at once; Prior of the first bad row raises
        bad = (
            ~np.isfinite(rows).all(axis=1)
            | (rows.min(axis=1, initial=0.0) < -SUM_TOL)
            | (np.abs(validated.sum(axis=1) - 1.0) > SUM_TOL)
        )
        if rows.shape[1] != len(states) or bad.any():
            Prior(states, rows[np.argmax(bad)])
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "matrix", _readonly(validated))

    def __setattr__(self, name, value):
        raise AttributeError("BeliefSet is immutable")

    def __len__(self):
        return self.matrix.shape[0]

    def __repr__(self):
        return f"BeliefSet({self.matrix.tolist()!r})"


def support_value(M: BeliefSet, phi: UtilityAct) -> float:
    """Minimum expected payoff of ``phi`` over the belief set ``M``."""
    _check_same_states(M, phi)
    return float(np.min(M.matrix @ phi.payoffs))


def mix_sets(lam: float, M: BeliefSet, M2: BeliefSet) -> BeliefSet:
    """Minkowski mixture lam*M + (1-lam)*M2, as pairwise vertex mixtures."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixture weight {lam} outside [0, 1]")
    _check_same_states(M, M2)
    a, b = M.matrix, M2.matrix
    combos = lam * a[:, None, :] + (1.0 - lam) * b[None, :, :]
    return BeliefSet(M.states, combos.reshape(-1, a.shape[1]))


def _simplex(tab: np.ndarray, first: int, max_pivots: int) -> list:
    """Maximize over a dense tableau in place, by Bland's rule; returns the
    final basis, ``basis[i]`` being the column basic in row ``i``.

    ``tab`` holds the constraint rows over its last row, which carries the
    reduced objective coefficients, and the right-hand sides in its last
    column.  The caller starts from a feasible basis in canonical form:
    columns ``first`` to ``first + m - 1`` (m constraint rows) are the
    identity, with zero reduced cost, and the right-hand sides are
    nonnegative.  Those columns end up holding the inverse of the final
    basis.  On return the last row has no positive coefficient and
    ``-tab[-1, -1]`` is the optimum, offset by whatever the caller put
    there.  Bland's rule cannot cycle, so hitting ``max_pivots`` or an
    unbounded entering column raises.
    """
    m = tab.shape[0] - 1
    basis = list(range(first, first + m))
    for _ in range(max_pivots):
        positive = np.flatnonzero(tab[m, :-1] > 1e-11)
        if positive.size == 0:
            return basis
        enter = int(positive[0])  # Bland: smallest eligible index
        col = tab[:m, enter]
        rows = np.flatnonzero(col > 1e-11)
        if rows.size == 0:
            raise RuntimeError(f"LP is unbounded along column {enter}")
        ratios = np.maximum(tab[rows, -1], 0.0) / col[rows]  # clip rounding below 0
        best = ratios.min()
        ties = rows[ratios <= best + 1e-15]
        leave = int(min(ties, key=lambda i: basis[i]))
        tab[leave] /= tab[leave, enter]
        pivot_row = tab[leave]
        factors = tab[:, enter].copy()
        factors[leave] = 0.0
        tab -= np.outer(factors, pivot_row)
        basis[leave] = enter
    raise RuntimeError(f"simplex did not finish within {max_pivots} pivots")


def convex_combination_gap(points: np.ndarray, target: np.ndarray) -> float:
    """Smallest L1 residual of writing ``target`` as a convex combination
    of the rows of ``points``.

    Solved by a dense phase-1 simplex from the all-artificial basis, so the
    zero-gap answer is exact up to pivot arithmetic.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    target = np.asarray(target, dtype=float).reshape(-1)
    k, n = points.shape
    if target.size != n:
        raise DimensionMismatchError("target dimension differs from points")
    A = np.vstack([points.T, np.ones((1, k))])
    b = np.concatenate([target, [1.0]])
    m = A.shape[0]
    flip = np.where(b < 0, -1.0, 1.0)
    A = A * flip[:, None]
    b = b * flip

    tab = np.zeros((m + 1, k + m + 1))
    tab[:m, :k] = A
    tab[:m, k : k + m] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :k] = A.sum(axis=0)
    tab[m, -1] = b.sum()
    _simplex(tab, k, MAX_PIVOTS)
    return float(max(tab[m, -1], 0.0))


def is_subset(M: BeliefSet, M2: BeliefSet, tol: float = INCLUSION_TOL) -> bool:
    """True iff every vertex of ``M`` lies in the convex hull of ``M2``."""
    _check_same_states(M, M2)
    return all(
        convex_combination_gap(M2.matrix, v) <= tol for v in M.matrix
    )


def set_equal(M: BeliefSet, M2: BeliefSet, tol: float = INCLUSION_TOL) -> bool:
    return is_subset(M, M2, tol) and is_subset(M2, M, tol)


def prune_vertices(M: BeliefSet, tol: float = INCLUSION_TOL) -> BeliefSet:
    """Drop vertices representable as convex combinations of the others.

    Correctness of min-based evaluations never depends on pruning; this
    exists to canonicalize vertex lists before comparing sets.
    """
    rows = np.unique(M.matrix, axis=0)
    keep = list(range(rows.shape[0]))
    i = 0
    while i < len(keep):
        others = [j for j in keep if j != keep[i]]
        if others and convex_combination_gap(rows[others], rows[keep[i]]) <= tol:
            keep.pop(i)
        else:
            i += 1
    return BeliefSet(M.states, rows[keep])


def symmetric_vertex_distance(M: BeliefSet, M2: BeliefSet) -> float:
    """Hausdorff distance between the two vertex lists in the max norm."""
    _check_same_states(M, M2)
    a, b = M.matrix, M2.matrix
    d = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


class ConvexCapacity:
    """Monotone set function over subsets of states, stored by bitmask.

    Normalization (empty set to 0, full set to 1) and monotonicity are
    enforced at construction; supermodularity is checked by
    :func:`is_supermodular` and required by the core and Choquet routines.
    """

    __slots__ = ("states", "values", "_supermodular")

    def __init__(self, states: StateSpace, values):
        n = len(states)
        if n > MAX_CAPACITY_STATES:
            raise ValueError(
                f"capacity operations support at most {MAX_CAPACITY_STATES} states"
            )
        v = np.asarray(values, dtype=float).reshape(-1)
        if v.size != 1 << n:
            raise ValueError(
                f"capacity needs {1 << n} subset values, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("capacity values must be finite")
        if abs(v[0]) > SUM_TOL:
            raise ValueError("capacity of the empty set must be 0")
        if abs(v[-1] - 1.0) > SUM_TOL:
            raise ValueError("capacity of the full state space must be 1")
        masks = np.arange(1 << n)
        for bit in range(n):
            grown = v[masks | (1 << bit)]
            if np.any(grown - v < -SUM_TOL):
                raise ValueError("capacity must be monotone under inclusion")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "values", _readonly(v))
        object.__setattr__(self, "_supermodular", None)

    def __setattr__(self, name, value):
        raise AttributeError("ConvexCapacity is immutable")

    @classmethod
    def from_subset_map(cls, states: StateSpace, mapping) -> "ConvexCapacity":
        """Build from {iterable-of-labels: value}; missing subsets default to
        the maximum value of their listed subsets (so additive inputs stay
        terse), except that unspecified values raise if truly absent."""
        n = len(states)
        v = np.full(1 << n, np.nan)
        v[0] = 0.0
        for labels, value in mapping.items():
            if isinstance(labels, str):
                labels = [s.strip() for s in labels.split(",") if s.strip()]
            mask = 0
            for lab in labels:
                mask |= 1 << states.index(lab)
            v[mask] = float(value)
        if np.isnan(v).any():
            missing = int(np.flatnonzero(np.isnan(v))[0])
            names = [states.labels[i] for i in range(n) if missing >> i & 1]
            raise ValueError(f"capacity value missing for subset {names}")
        return cls(states, v)

    def __repr__(self):
        return f"ConvexCapacity({self.values.tolist()!r})"


def is_supermodular(nu: ConvexCapacity, tol: float = SUPERMODULAR_TOL) -> bool:
    """Exhaustive check of v(E|F) + v(E&F) >= v(E) + v(F) over all pairs."""
    v = nu.values
    size = v.size
    masks = np.arange(size)
    for e in range(size):
        lhs = v[masks | e] + v[masks & e]
        if np.any(lhs - (v[e] + v) < -tol):
            return False
    return True


def _require_supermodular(nu: ConvexCapacity):
    if nu._supermodular is None:
        object.__setattr__(nu, "_supermodular", is_supermodular(nu))
    if not nu._supermodular:
        raise ValueError("capacity is not supermodular")


def core_of_capacity(nu: ConvexCapacity) -> BeliefSet:
    """Core of a supermodular capacity, as the hull of its marginal vectors.

    Every ordering of the states contributes the vector of marginal
    increments along that ordering; for supermodular capacities these
    vectors are exactly the core's vertices.
    """
    _require_supermodular(nu)
    n = len(nu.states)
    if n > MAX_CORE_STATES:
        raise ValueError(
            f"core enumeration supports at most {MAX_CORE_STATES} states "
            "(vertex count grows factorially)"
        )
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    prefix_masks = np.cumsum(1 << perms, axis=1)
    prefix_vals = nu.values[prefix_masks]
    margins = np.diff(prefix_vals, axis=1, prepend=0.0)
    vertices = np.empty_like(margins)
    np.put_along_axis(vertices, perms, margins, axis=1)
    vertices = np.unique(np.maximum(vertices, 0.0), axis=0)
    return BeliefSet(nu.states, vertices)


def choquet_integral(nu: ConvexCapacity, phi: UtilityAct) -> float:
    """Choquet integral of ``phi`` by the descending sort-and-sum formula."""
    _check_same_states(nu, phi)
    _require_supermodular(nu)
    order = np.argsort(-phi.payoffs, kind="stable")
    sorted_pay = phi.payoffs[order]
    prefix_masks = np.cumsum(1 << order)
    prefix_vals = nu.values[prefix_masks]
    increments = np.diff(prefix_vals, prepend=0.0)
    return float(sorted_pay @ increments)
