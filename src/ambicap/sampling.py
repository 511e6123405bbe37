"""Seeded samplers for lotteries, acts, and random models.

A ``LotterySampler`` draws trials as rows of uniform doubles.  A draw
names its ingredients in a fixed layout (``LotterySampler.chunk``), so
every trial of it takes a row of the same width K, and a chunk of B trials
is one ``rng.random((B, K))`` call.  Each ingredient is an exact transform
of its own columns of the row.  A chunk of B rows therefore equals B chunks
of one row bit for bit and leaves the generator in the same state: the
chunk size never changes a draw.  ``uniform``, ``payoff``, ``act``,
``lottery``, ``pair`` and ``draw_lottery`` are the chunk of one.

Verdicts produced from these streams are reproducible: the seed fully
determines every draw, and optional probe lists are consumed first so that
known witnesses are always visited before random exploration starts.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .geometry import BeliefSet, ConvexCapacity, StateSpace, UtilityAct, _check_same_states
from .model import CapModel, FiniteFamily, Lottery

# Exp(1) quantile of the midpoint of [0, 2**-53), the cell of u = 0: the
# weight of a real atom whose column reads 0, so that no atom has
# probability 0.  Every other u gives -log1p(-u) >= 2**-53.
_LEAST_WEIGHT = 2.0**-54


def lottery_row(lotteries, i: int) -> tuple[np.ndarray, np.ndarray]:
    """``(probs, payoffs)`` of row ``i`` of zero-padded chunk lotteries,
    trimmed to its support, which is a prefix of the row."""
    probs = lotteries[0][i]
    n = np.count_nonzero(probs)
    return probs[:n], lotteries[1][i, :n]


def _take(probes: deque, B: int) -> list:
    """The next min(B, len(probes)) probes, removed from the list."""
    return [probes.popleft() for _ in range(min(B, len(probes)))]


def _with_probes(lotteries, probes):
    """The chunk lotteries with their first rows replaced by the probes'
    ``(probs, payoffs)``, widened with +0.0 atoms to the widest."""
    if not probes:
        return lotteries
    probs, payoffs = lotteries
    extra = max(0, *(len(p) - probs.shape[1] for p, _ in probes))
    probs, payoffs = np.pad(probs, ((0, 0), (0, extra))), np.pad(payoffs, ((0, 0), (0, extra), (0, 0)))
    for i, (p, x) in enumerate(probes):
        probs[i], payoffs[i] = 0.0, 0.0
        probs[i, : len(p)], payoffs[i, : len(p)] = p, x
    return probs, payoffs


class LotterySampler:
    """Draws acts and finitely supported lotteries over a state space.

    Payoffs are uniform on [low, high] (utils) and lottery supports hold at
    most ``max_support`` atoms.  ``probes`` (lotteries) and ``pair_probes``
    (lottery pairs) are yielded before any random draw; a probe takes the
    place of the lottery or pair its trial's columns would give, and those
    columns are still drawn.
    """

    def __init__(
        self,
        states: StateSpace,
        seed: int = 0,
        low: float = -100.0,
        high: float = 300.0,
        max_support: int = 4,
        probes=(),
        pair_probes=(),
    ):
        self.states = states
        self.rng = np.random.default_rng(seed)
        self.low = float(low)
        self.high = float(high)
        self.max_support = int(max_support)
        probes, pair_probes = tuple(probes), tuple(pair_probes)
        for P in [*probes, *(P for pair in pair_probes for P in pair)]:
            _check_same_states(self, P)
        # probes are held as the (probs, payoffs) arrays a draw returns
        self._probes = deque((P.probs, P.payoff_matrix) for P in probes)
        self._pair_probes = deque(tuple((P.probs, P.payoff_matrix) for P in pair) for pair in pair_probes)

    def _width(self, kind) -> int:
        if isinstance(kind, int):
            return kind
        S, A = len(self.states), self.max_support
        return {"uniform": 1, "payoff": 1, "act": S, "lottery": 1 + A + A * S, "pair": 2 * (1 + A + A * S)}[kind]

    def chunk(self, B: int, *layout) -> list:
        """The ingredients ``layout`` names for B trials, from one
        ``rng.random((B, K))`` call: row i holds trial i, and each
        ingredient reads the next columns of it, left to right.  K is the
        sum of the ingredients' widths (S states, A = ``max_support``):

        - ``"uniform"``, 1 column: (B,) the uniform itself;
        - ``"payoff"``, 1 column: (B,) ``low + (high - low)·u``; ``"act"``,
          S columns: (B, S) of these;
        - ``"lottery"``, 1 + A + A·S columns: zero-padded ``(probs,
          payoffs)`` of shapes (B, A) and (B, A, S).  The first column
          gives the support ``⌊u·A⌋ + 1``, the next A the weights
          ``-log1p(-u)`` (Exp(1) variates, normalised over the support
          into flat Dirichlet probabilities), the last A·S the atoms'
          payoffs.  Atoms past the support get probability 0 and payoff
          +0.0.  The first rows are the next lottery probes, while any are
          left;
        - ``"pair"``, twice those columns: two such lotteries, whose first
          rows are the next pair probes;
        - an int k, k columns: the (B, k) uniforms themselves.

        A layout names at most one ``"lottery"`` and one ``"pair"``, so
        each trial takes at most one probe of each list.
        """
        widths = [self._width(kind) for kind in layout]
        u = self.rng.random((B, sum(widths)))
        out, at = [], 0
        for kind, width in zip(layout, widths):
            cols = u[:, at : at + width]
            at += width
            if kind == "uniform":
                out.append(cols[:, 0])
            elif kind == "payoff":
                out.append(self._payoffs(cols[:, 0]))
            elif kind == "act":
                out.append(self._payoffs(cols))
            elif kind == "lottery":
                out.append(_with_probes(self._lotteries(cols), _take(self._probes, B)))
            elif kind == "pair":
                P, Q = self._lotteries(cols[:, : width // 2]), self._lotteries(cols[:, width // 2 :])
                probes = _take(self._pair_probes, B)
                out.append((_with_probes(P, [p for p, _ in probes]), _with_probes(Q, [q for _, q in probes])))
            else:
                out.append(cols)
        return out

    def _payoffs(self, u):
        return self.low + (self.high - self.low) * u

    def _lotteries(self, u):
        B, A, S = len(u), self.max_support, len(self.states)
        # atom j is real iff j < ⌊u·A⌋ + 1, that is iff j <= u·A
        real = np.arange(A) <= u[:, :1] * A
        weights = np.maximum(-np.log1p(-u[:, 1 : 1 + A]), _LEAST_WEIGHT) * real
        # a running sum adds each row's weights in column order, whatever B is
        probs = weights / np.add.accumulate(weights, axis=1)[:, -1:]
        payoffs = np.where(real[:, :, None], self._payoffs(u[:, 1 + A :]).reshape(B, A, S), 0.0)
        return probs, payoffs

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * float(self.chunk(1, "uniform")[0][0])

    def payoff(self) -> float:
        return float(self.chunk(1, "payoff")[0][0])

    def act(self) -> UtilityAct:
        return UtilityAct(self.states, self.chunk(1, "act")[0][0])

    def constant_lottery(self) -> Lottery:
        return Lottery.constant(self.states, self.payoff())

    def draw_lottery(self) -> tuple[np.ndarray, np.ndarray]:
        """``(probs, payoffs)`` of the next lottery, unchecked: the next
        probe's arrays, or a random draw."""
        return lottery_row(self.chunk(1, "lottery")[0], 0)

    def lottery(self) -> Lottery:
        return Lottery(self.states, *self.draw_lottery())

    def pair(self) -> tuple[Lottery, Lottery]:
        """The next pair probe, or two random lotteries (pairs take no lottery probes)."""
        P, Q = self.chunk(1, "pair")[0]
        return Lottery(self.states, *lottery_row(P, 0)), Lottery(self.states, *lottery_row(Q, 0))

    def checkpoint(self):
        """Everything later draws depend on: the generator state and the
        probes not yet drawn."""
        return self.rng.bit_generator.state, tuple(self._probes), tuple(self._pair_probes)

    def rewind(self, mark) -> None:
        """Go back to a ``checkpoint()``, so the draws made since repeat."""
        state, probes, pair_probes = mark
        self.rng.bit_generator.state = state
        self._probes, self._pair_probes = deque(probes), deque(pair_probes)


def random_prior_matrix(states: StateSpace, rng, n_rows: int) -> np.ndarray:
    return rng.dirichlet(np.ones(len(states)), size=n_rows)


def random_belief_set(states: StateSpace, rng, max_vertices: int = 4) -> BeliefSet:
    n_rows = int(rng.integers(1, max_vertices + 1))
    return BeliefSet(states, random_prior_matrix(states, rng, n_rows))


def random_finite_family(
    states: StateSpace,
    rng,
    max_members: int = 25,
    max_cost: float = 50.0,
    zero_costs: bool = False,
    singleton: bool = False,
) -> FiniteFamily:
    n_members = int(rng.integers(2, max_members + 1))
    sets = [
        random_belief_set(states, rng, max_vertices=1 if singleton else 4)
        for _ in range(n_members)
    ]
    if zero_costs:
        costs = np.zeros(n_members)
    else:
        costs = rng.uniform(0.0, max_cost, n_members)
        costs[int(rng.integers(n_members))] = 0.0  # grounded exactly
    return FiniteFamily(list(zip(sets, costs)))


def random_supermodular_capacity(states: StateSpace, rng) -> ConvexCapacity:
    """Nonnegative combination of unanimity games plus an additive part.

    Unanimity games (1 on supersets of T, else 0) are supermodular, as are
    additive measures, and supermodularity survives nonnegative sums, so
    the normalized combination is a convex capacity by construction.
    """
    n = len(states)
    masks = np.arange(1 << n)
    values = np.zeros(1 << n)
    additive = rng.uniform(0.1, 1.0, n)
    for i in range(n):
        values += additive[i] * ((masks >> i) & 1)
    n_games = int(rng.integers(1, 4))
    for _ in range(n_games):
        T = int(rng.integers(1, 1 << n))
        if bin(T).count("1") < 2:
            continue
        values += rng.exponential(1.0) * ((masks & T) == T)
    values /= values[-1]
    values[0] = 0.0
    return ConvexCapacity(states, values)


def random_cap_model(
    states: StateSpace,
    rng,
    variant: str = "cap",
    max_members: int = 25,
    max_cost: float = 50.0,
    singleton: bool = False,
) -> CapModel:
    """Random grounded model of the requested variant."""
    if variant == "choquet":
        n_members = int(rng.integers(2, min(max_members, 8) + 1))
        caps = [random_supermodular_capacity(states, rng) for _ in range(n_members)]
        costs = rng.uniform(0.0, max_cost, n_members)
        costs[int(rng.integers(n_members))] = 0.0
        return CapModel.from_capacities(states, list(zip(caps, costs)))
    zero_costs = variant in ("dual_self", "double_maxmin")
    family = random_finite_family(
        states,
        rng,
        max_members=max_members,
        max_cost=max_cost,
        zero_costs=zero_costs,
        singleton=singleton,
    )
    return CapModel(states, family, variant)
