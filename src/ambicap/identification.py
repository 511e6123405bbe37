"""Cost recovery from behavior.

The canonical cost of a belief set is the supremum, over lotteries, of
expected MEU under that set minus the lottery's certainty equivalent.  The
estimator restricts the supremum to lotteries supported on a finite
dictionary of normalized acts (shifting an atom by a constant moves both
terms equally, so only normalized directions matter).  Over the lottery's
weights the objective is concave and piecewise linear, so its maximum is
one LP, solved by the package's simplex kernel.  A finite family gives the
LP every member at once.  A parametric family starts from its box corners
and gains, as cutting planes (Kelley 1960), the optimal members of each
witness lottery under the exact evaluator, until the evaluator agrees with
the LP; after ``MAX_COST_LPS`` LPs it raises instead.  The estimate is the
value of that witness, so it is a certified lower bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import (
    INCLUSION_TOL,
    BeliefSet,
    StateSpace,
    UtilityAct,
    _simplex,
    is_subset,
    mix_sets,
    prune_vertices,
    symmetric_vertex_distance,
)
from .model import (
    CapModel,
    FiniteFamily,
    Lottery,
    ParametricFamily,
    evaluate,
    evaluate_many,
)

# Right-hand-side perturbation of the cost LP; random, so that it breaks the
# affine dependences among candidate rows instead of repeating them.
_PERTURBATION = np.random.default_rng(0).uniform(1e-8, 2e-8, 1024)

_DICTIONARY_SCALE = 1000.0  # scale of each dictionary act in the cost LP

# Cost LPs one estimate may solve; the stock urns need one, random
# templates up to about 20.
MAX_COST_LPS = 100


def normalize_act(act: UtilityAct) -> UtilityAct:
    """Shift the first-state payoff to 0 and rescale to max |payoff| 1."""
    p = act.payoffs - act.payoffs[0]
    scale = np.abs(p).max()
    if scale < 1e-15:
        raise ValueError("constant acts have no normalized direction")
    return UtilityAct(act.states, p / scale)


@dataclass(frozen=True)
class Dictionary:
    """Finite set of normalized payoff directions."""

    acts: tuple

    def __post_init__(self):
        acts = tuple(self.acts)
        if not acts:
            raise ValueError("dictionary needs at least one act")
        seen = set()
        for a in acts:
            if a.payoffs[0] != 0.0 or np.abs(a.payoffs).max() != 1.0:
                raise ValueError(
                    f"act {a.payoffs.tolist()} is not normalized "
                    "(first payoff 0, max |payoff| 1)"
                )
            key = a.payoffs.tobytes()
            if key in seen:
                raise ValueError("dictionary acts must be distinct")
            seen.add(key)
        object.__setattr__(self, "acts", acts)


def standard_bet_dictionary(states: StateSpace) -> Dictionary:
    """Indicator bets on each state, their negatives, and pairwise
    differences, all normalized and deduplicated."""
    n = len(states)
    eye = np.eye(n)
    raw = [eye[i] for i in range(n)]
    raw += [-eye[i] for i in range(n)]
    raw += [eye[i] - eye[j] for i in range(n) for j in range(n) if i != j]
    acts, seen = [], set()
    for p in raw:
        a = normalize_act(UtilityAct(states, p))
        key = a.payoffs.tobytes()
        if key not in seen:
            seen.add(key)
            acts.append(a)
    return Dictionary(tuple(acts))


@dataclass(frozen=True)
class CostEstimate:
    """A certified lower bound on the canonical cost of one belief set."""

    value: float
    is_lower_bound: bool
    support_witness: Lottery


@dataclass(frozen=True)
class CanonicalReport:
    """Violations of inclusion-monotonicity and convexity in a finite family."""

    canonical: bool
    monotonicity_violations: tuple
    cost_convexity_violations: tuple
    hull_gaps: tuple
    members_checked: int
    lambdas: tuple = (0.25, 0.5, 0.75)


def _dictionary_payoffs(dictionary: Dictionary, states: StateSpace) -> np.ndarray:
    """Payoff rows of the zero act first (it pins the estimate's floor at
    exactly 0), then of every dictionary act scaled by ``_DICTIONARY_SCALE``.

    Smaller scales add nothing: MEU is positively homogeneous, so weight q
    on alpha * psi (alpha <= _DICTIONARY_SCALE) is matched by weight
    q * alpha / _DICTIONARY_SCALE on the scaled act, with the rest moved to
    the zero act, which scores 0 under every perception.  One scale keeps
    the LP's columns from being rescaled copies of one another.
    """
    return np.vstack(
        [np.zeros(len(states))] + [_DICTIONARY_SCALE * psi.payoffs for psi in dictionary.acts]
    )


def _menu_lp(h: np.ndarray, Hmat: np.ndarray, costs: np.ndarray, max_pivots: int):
    """Weights w on the simplex maximizing h . w - max_k (Hmat[k] . w - costs[k]).

    The epigraph form max h . w - z s.t. z >= Hmat[k] . w - costs[k] is an
    LP.  Writing z = Hmat[j] . w - costs[j] + s for a cheapest candidate j
    turns its constraint into s >= 0 and leaves every other right-hand
    side costs[k] - costs[j] nonnegative.  Column 0 of ``Hmat`` and entry 0
    of ``h`` belong to the zero act, so its weight is the slack of
    sum(w[1:]) <= 1, and the all-slack basis at w = e_0 is feasible.

    Payoffs and costs are divided by the largest payoff magnitude, so that
    the kernel's absolute pivot tolerance sits far above rounding noise.
    The LP is highly degenerate (candidate rows are often affine
    combinations of one another), so its right-hand sides are perturbed by
    random amounts near 1e-8 while pivoting (Charnes 1952), and the
    solution is then recomputed from the unperturbed ones through the
    inverse of the final basis.
    """
    j = int(np.argmin(costs))
    others = np.arange(costs.size) != j
    scale = max(np.abs(h).max(), np.abs(Hmat).max()) or 1.0
    rows, cols = int(others.sum()) + 1, h.size
    tab = np.zeros((rows + 1, cols + rows + 1))
    tab[: rows - 1, : cols - 1] = (Hmat[others, 1:] - Hmat[j, 1:]) / scale
    tab[: rows - 1, cols - 1] = -1.0
    tab[: rows - 1, -1] = (costs[others] - costs[j]) / scale
    tab[rows - 1, : cols - 1] = 1.0
    tab[rows - 1, -1] = 1.0
    tab[:rows, cols:-1] = np.eye(rows)
    tab[rows, : cols - 1] = (h[1:] - Hmat[j, 1:]) / scale
    tab[rows, cols - 1] = -1.0
    rhs = tab[:rows, -1].copy()
    tab[:rows, -1] += np.resize(_PERTURBATION, rows)
    basis = _simplex(tab, cols, max_pivots)
    values = tab[:rows, cols:-1] @ rhs
    if values.min() < -1e-9:
        raise RuntimeError("cost LP basis is infeasible without the perturbation")

    w = np.zeros(h.size)
    for row, col in enumerate(basis):
        if col < cols - 1:
            w[col + 1] = max(values[row], 0.0)
    w[0] = max(0.0, 1.0 - w[1:].sum())
    return w


def estimate_cost_star(
    model: CapModel, M: BeliefSet, dictionary: Dictionary, budget: int = 5000
) -> CostEstimate:
    """Lower-bound the canonical cost of M under the model's behavior.

    ``budget`` caps the simplex pivots of each LP solve, and
    ``MAX_COST_LPS`` the cost LPs of the cutting-plane loop; reaching
    either raises ``RuntimeError``.
    """
    if model.variant != "cap":
        raise ValueError("cost recovery is defined for the cap variant")
    if M.states != model.states:
        raise ValueError("belief set over a different state space")
    payoffs = _dictionary_payoffs(dictionary, model.states)
    h = (M.matrix @ payoffs.T).min(axis=0)
    family = model.family
    if isinstance(family, FiniteFamily):
        Hmat, costs = family.meu_matrix(payoffs), family.costs
    else:
        # the corners, in the lexicographic order on which the cost LP's first cheapest row depends
        Hmat, costs = family.meu_at(family.corners, payoffs)

    for _ in range(MAX_COST_LPS):
        w = _menu_lp(h, Hmat, costs, budget)
        probs = w / w.sum()
        witness = Lottery(model.states, probs[probs > 0.0], payoffs[probs > 0.0])
        result = evaluate(model, witness)
        eps = 1e-9 * max(1.0, abs(result.value))
        if isinstance(family, FiniteFamily) or result.value <= np.max(Hmat @ w - costs) + eps:
            break
        rows, row_costs = family.meu_at(result.optimal_perceptions, payoffs)
        Hmat, costs = np.vstack([Hmat, rows]), np.concatenate([costs, row_costs])
    else:
        raise RuntimeError(f"cost estimate: the evaluator still beats the cost LP after {MAX_COST_LPS} LPs")

    promised = (M.matrix @ witness.payoff_matrix.T).min(axis=0) @ witness.probs
    true_value = float(promised - result.value)
    if true_value < 0.0:
        zero = Lottery.constant(model.states, 0.0)
        return CostEstimate(max(0.0, -evaluate(model, zero).value), True, zero)
    return CostEstimate(true_value, True, witness)


_PROBE_CACHE: dict = {}


def _probe_directions(states: StateSpace) -> np.ndarray:
    """Deterministic payoff directions used to fingerprint belief sets."""
    n = len(states)
    if n not in _PROBE_CACHE:
        eye = np.eye(n)
        dirs = [eye[i] for i in range(n)]
        dirs += [-eye[i] for i in range(n)]
        dirs += [eye[i] - eye[j] for i in range(n) for j in range(i + 1, n)]
        rng = np.random.default_rng(20240917)
        dirs += list(rng.normal(size=(32, n)))
        _PROBE_CACHE[n] = np.vstack(dirs)
    return _PROBE_CACHE[n]


def _support_vector(M: BeliefSet, dirs: np.ndarray) -> np.ndarray:
    return (M.matrix @ dirs.T).min(axis=0)


def _probe_column(fingerprints: np.ndarray) -> int:
    """The column with the most distinct values, the first one on a tie."""
    ranked = np.sort(fingerprints, axis=0)
    return int(np.argmax((ranked[1:] != ranked[:-1]).sum(axis=0)))


def check_canonical(family) -> CanonicalReport:
    """Check inclusion-monotonicity of costs and convexity of the structure.

    A parametric family is audited in place: its members are its grid
    points, indexed as in ``family.thetas``.  Both checks read the members'
    support values on ``_probe_directions`` (``family.meu_matrix``) first
    and solve hull LPs (``is_subset``) only where these cannot decide; a
    member's ``BeliefSet`` is built only for such an LP.

    Monotonicity: a pair (i, j) with ``costs[i] < costs[j] - 1e-9`` is a
    violation when ``is_subset(M_i, M_j)``.  Acceptance means every vertex
    v of M_i has a phase-1 gap of at most t = ``INCLUSION_TOL``: there are
    weights w >= 0 on the vertices m_k of M_j with v = sum_k w_k m_k + e,
    sum_k w_k = 1 - delta and |delta| + ||e||_1 <= t.  For a probe d, and
    as |min_k m_k . d| <= ||d||_inf for probability vectors,
        v . d >= (1 - delta) min_k m_k . d - ||e||_1 ||d||_inf
              >= fp_j[d] - t ||d||_inf,
    so fp_i[d] >= fp_j[d] - t ||d||_inf for every probe.  A pair that
    breaks this bound by more than 1e-12 ||d||_inf, a slack for the
    rounding of the fingerprints and of the simplex's gap (1000 times
    below t), is rejected without an LP; ``is_subset`` tests the rest, in
    row-major order.

    Convexity: for i < j and each lambda, the members k whose fingerprint
    is within 1e-9 of the lambda-mixture of rows i and j (support functions
    are Minkowski-linear) are the near candidates, in index order.  The
    first of them that is set-equal to the mixture decides: it is a
    violation when its cost exceeds the chord by more than 1e-9.  Near
    candidates are found in a window of the fingerprints sorted on one
    column, one block of (j, lambda) per i.  The LPs run only where some
    near candidate breaks the bound, and only up to the last such
    candidate: one after it cannot break the bound whether or not it is
    the first set-equal one.

    ``hull_gaps`` is always empty: a mixture's fingerprint is the same
    mixture of two fingerprint rows and lies in their hull by construction.
    """
    costs = family.costs
    K = len(costs)
    if isinstance(family, ParametricFamily):
        member = functools.cache(lambda i: family.member_at(family.thetas[i]))
    else:
        member = family.sets.__getitem__
    lambdas = CanonicalReport.lambdas

    dirs = _probe_directions(family.states)
    fingerprints = family.meu_matrix(dirs)

    slack = (INCLUSION_TOL + 1e-12) * np.abs(dirs).max(axis=1)
    nestable = (fingerprints[:, None, :] + slack >= fingerprints[None, :, :]).all(axis=2)
    ordered = costs[:, None] < costs[None, :] - 1e-9
    mono = [
        (int(i), int(j), float(costs[i]), float(costs[j]))
        for i, j in zip(*np.nonzero(ordered & nestable))
        if is_subset(member(i), member(j))
    ]

    lam = np.array(lambdas)
    column = _probe_column(fingerprints)
    by_column = np.argsort(fingerprints[:, column], kind="stable")
    sorted_column = fingerprints[by_column, column]
    convexity = []
    for i in range(K - 1):
        # (j, lambda) blocks for j > i, flattened row-major
        targets = lam[:, None] * fingerprints[i] + (1.0 - lam)[:, None] * fingerprints[i + 1 :, None, :]
        targets = targets.reshape(-1, dirs.shape[0])
        bounds = (lam * costs[i] + (1.0 - lam) * costs[i + 1 :, None]).reshape(-1)
        # a window twice as wide as the test, so that rounding cannot hide a candidate
        lo = np.searchsorted(sorted_column, targets[:, column] - 2e-9, "left")
        counts = np.searchsorted(sorted_column, targets[:, column] + 2e-9, "right") - lo
        # every target's window positions lo, lo + 1, ..., laid end to end
        owner = np.repeat(np.arange(targets.shape[0]), counts)
        start = np.repeat(lo - np.cumsum(counts) + counts, counts)
        k = by_column[start + np.arange(owner.size)]
        near = np.abs(fingerprints[k] - targets[owner]).max(axis=1) <= 1e-9
        breaks = near & (costs[k] > bounds[owner] + 1e-9)
        for t in np.unique(owner[breaks]):
            j, lam_t = i + 1 + t // lam.size, lambdas[t % lam.size]
            candidates = np.sort(k[near & (owner == t)])
            mixed = mix_sets(lam_t, member(i), member(j))
            for m in candidates[candidates <= k[breaks & (owner == t)].max()]:
                if is_subset(mixed, member(m)) and is_subset(member(m), mixed):
                    if costs[m] > bounds[t] + 1e-9:
                        convexity.append(
                            (i, int(j), float(lam_t), int(m), float(costs[m]), float(bounds[t]))
                        )
                    break

    return CanonicalReport(
        canonical=not (mono or convexity),
        monotonicity_violations=tuple(mono),
        cost_convexity_violations=tuple(convexity),
        hull_gaps=(),
        members_checked=K,
    )


def estimate_multi_meu_core(model: CapModel, sampler, n: int = 200) -> list[BeliefSet]:
    """Union of optimal perceptions over n sampled lotteries, deduplicated.

    An inner approximation of the minimal perception family: it grows with
    n and never over-reports (every returned set was exactly optimal at
    some sampled lottery).  The n lotteries are drawn as one chunk and
    scored as one by ``evaluate_many``, which lists each one's optimal
    perceptions as ``evaluate`` of that lottery would.  ``n`` must be at
    least 1.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    if model.variant not in ("cap", "dual_self", "choquet"):
        raise ValueError("the minimal family is recovered from max-type variants")
    family = model.family
    found: list[BeliefSet] = []
    # a repeated tag prunes to the same set, at distance 0 from a found one
    seen = set()
    (drawn,) = sampler.chunk(n, "lottery")  # the n lotteries of n sampler.lottery() calls
    for result in evaluate_many(model, *drawn):
        for tag in result.optimal_perceptions:
            if tag in seen:
                continue
            seen.add(tag)
            if isinstance(family, FiniteFamily):
                candidate = family.sets[tag]
            else:
                candidate = family.member_at(np.asarray(tag))
            pruned = prune_vertices(candidate)
            if all(
                symmetric_vertex_distance(pruned, existing) >= 1e-9
                for existing in found
            ):
                found.append(pruned)
    return found
