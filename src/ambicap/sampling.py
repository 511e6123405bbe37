"""Seeded samplers for lotteries, acts, and random models.

Verdicts produced from these streams are reproducible: the seed fully
determines every draw, and optional probe lists are consumed first so that
known witnesses are always visited before random exploration starts.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .geometry import BeliefSet, ConvexCapacity, StateSpace, UtilityAct, _check_same_states
from .model import CapModel, FiniteFamily, Lottery


class LotterySampler:
    """Draws acts and finitely supported lotteries over a state space.

    Payoffs are uniform on [low, high] (utils) and lottery supports hold at
    most ``max_support`` atoms.  ``probes`` (lotteries) and ``pair_probes``
    (lottery pairs) are yielded before any random draw.
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
        self._probes = deque(probes)
        self._pair_probes = deque(pair_probes)
        for P in [*self._probes, *(P for pair in self._pair_probes for P in pair)]:
            _check_same_states(self, P)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return float(self.rng.uniform(lo, hi))

    def payoff(self) -> float:
        return float(self.rng.uniform(self.low, self.high))

    def draw_act(self) -> np.ndarray:
        """Payoff vector of the next act, unchecked."""
        return self.rng.uniform(self.low, self.high, len(self.states))

    def act(self) -> UtilityAct:
        return UtilityAct(self.states, self.draw_act())

    def constant_lottery(self) -> Lottery:
        return Lottery.constant(self.states, self.payoff())

    def draw_lottery(self) -> tuple[np.ndarray, np.ndarray]:
        """``(probs, payoffs)`` of the next lottery, unchecked: the next
        probe's arrays, or a random draw."""
        if self._probes:
            P = self._probes.popleft()
            return P.probs, P.payoff_matrix
        support = int(self.rng.integers(1, self.max_support + 1))
        probs = self.rng.dirichlet(np.ones(support))
        return probs, self.rng.uniform(self.low, self.high, (support, len(self.states)))

    def draw_pair(self) -> tuple[tuple, tuple]:
        """The next pair as two ``draw_lottery`` results: a pair probe's
        arrays, or two draws."""
        if self._pair_probes:
            return tuple((P.probs, P.payoff_matrix) for P in self._pair_probes.popleft())
        return self.draw_lottery(), self.draw_lottery()

    def lottery(self) -> Lottery:
        return Lottery(self.states, *self.draw_lottery())

    def pair(self) -> tuple[Lottery, Lottery]:
        P, Q = self.draw_pair()
        return Lottery(self.states, *P), Lottery(self.states, *Q)

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
