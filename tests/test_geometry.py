"""Belief-set geometry: support values, convex hulls, capacities, cores."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st

from ambicap import (
    BeliefSet,
    ConvexCapacity,
    DimensionMismatchError,
    Prior,
    StateSpace,
    UtilityAct,
    choquet_integral,
    convex_combination_gap,
    core_of_capacity,
    is_subset,
    is_supermodular,
    mix_sets,
    prune_vertices,
    set_equal,
    support_value,
    symmetric_vertex_distance,
)
from ambicap import geometry
from ambicap.geometry import _simplex
from ambicap.sampling import random_belief_set, random_supermodular_capacity


def _states(n):
    return StateSpace([f"s{i}" for i in range(n)])


@st.composite
def belief_set_and_acts(draw, n_acts=2):
    n = draw(st.integers(2, 4))
    states = _states(n)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    M = random_belief_set(states, rng)
    acts = [
        UtilityAct(states, rng.uniform(-100, 300, n)) for _ in range(n_acts)
    ]
    return states, M, acts


class TestStateSpaceAndPrior:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            StateSpace(("a", "a"))

    def test_single_state_rejected(self):
        with pytest.raises(ValueError):
            StateSpace(("a",))

    def test_index(self, states4):
        assert states4.index("green") == 2
        with pytest.raises(ValueError):
            states4.index("yellow")

    def test_prior_must_sum_to_one(self, states4):
        with pytest.raises(ValueError):
            Prior(states4, (0.5, 0.5, 0.1, 0.0))

    def test_prior_rejects_negative_mass(self, states4):
        with pytest.raises(ValueError):
            Prior(states4, (0.7, 0.5, -0.2, 0.0))

    def test_prior_clamps_float_noise(self, states4):
        p = Prior(states4, (1.0 + 1e-13, -1e-13, 0.0, 0.0))
        assert p.weights.min() >= 0.0

    def test_dimension_mismatch(self, states4, states3):
        M = BeliefSet(states4, np.eye(4))
        phi = UtilityAct(states3, (1.0, 2.0, 3.0))
        with pytest.raises(DimensionMismatchError):
            support_value(M, phi)

    def test_immutability(self, states4):
        M = BeliefSet(states4, np.eye(4))
        with pytest.raises((ValueError, AttributeError)):
            M.matrix[0, 0] = 9.0


class TestSupportValue:
    @given(belief_set_and_acts())
    def test_translation(self, data):
        states, M, (phi, _) = data
        shifted = UtilityAct(states, phi.payoffs + 7.5)
        assert support_value(M, shifted) == pytest.approx(
            support_value(M, phi) + 7.5, abs=1e-9
        )

    @given(belief_set_and_acts(), st.floats(0.0, 10.0))
    def test_positive_homogeneity(self, data, alpha):
        states, M, (phi, _) = data
        scaled = UtilityAct(states, alpha * phi.payoffs)
        assert support_value(M, scaled) == pytest.approx(
            alpha * support_value(M, phi), abs=1e-6
        )

    @given(belief_set_and_acts())
    def test_monotone_in_payoffs(self, data):
        states, M, (phi, _) = data
        bigger = UtilityAct(states, phi.payoffs + np.abs(phi.payoffs) * 0.1 + 1.0)
        assert support_value(M, bigger) >= support_value(M, phi)

    @given(belief_set_and_acts(), st.floats(0.0, 1.0))
    def test_superadditive_in_mixtures(self, data, lam):
        states, M, (phi, psi) = data
        mixed = UtilityAct(states, lam * phi.payoffs + (1 - lam) * psi.payoffs)
        lower = lam * support_value(M, phi) + (1 - lam) * support_value(M, psi)
        assert support_value(M, mixed) >= lower - 1e-9

    @given(belief_set_and_acts(), st.floats(0.0, 1.0))
    def test_mix_sets_support_is_affine(self, data, lam):
        states, M, (phi, _) = data
        rng = np.random.default_rng(int(abs(phi.payoffs[0]) * 1e6) % 2**31)
        N = random_belief_set(states, rng)
        mixed = mix_sets(lam, M, N)
        want = lam * support_value(M, phi) + (1 - lam) * support_value(N, phi)
        assert support_value(mixed, phi) == pytest.approx(want, abs=1e-9)


def _lp_in_hull(points: np.ndarray, target: np.ndarray) -> bool:
    """Independent membership test: solve the feasibility LP directly."""
    k, d = points.shape
    res = scipy.optimize.linprog(
        c=np.zeros(k),
        A_eq=np.vstack([points.T, np.ones(k)]),
        b_eq=np.concatenate([target, [1.0]]),
        bounds=[(0.0, None)] * k,
        method="highs",
    )
    return res.status == 0


class TestConvexCombinationGap:
    @given(st.integers(0, 2**31 - 1))
    def test_matches_lp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        points = rng.uniform(-1, 1, (k, d))
        if rng.uniform() < 0.5:
            weights = rng.dirichlet(np.ones(k))
            target = weights @ points
        else:
            target = rng.uniform(-1, 1, d)
        gap = convex_combination_gap(points, target)
        feasible = _lp_in_hull(points, target)
        if feasible:
            assert gap <= 1e-9
        else:
            assert gap > 1e-9

    def test_exact_member(self):
        points = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert convex_combination_gap(points, np.array([0.25, 0.75])) <= 1e-12
        assert convex_combination_gap(points, np.array([0.5, 0.75])) > 1e-3


class TestSimplexKernel:
    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_PIVOTS", 2)
        with pytest.raises(RuntimeError, match="2 pivots"):
            convex_combination_gap(np.eye(3), np.full(3, 1.0 / 3.0))

    def test_unbounded_column_raises(self):
        # max x subject to -x + s = 1: x enters and nothing bounds it
        tab = np.array([[-1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(RuntimeError, match="unbounded along column 0"):
            _simplex(tab, 1, 10)


class TestSubsetAndPrune:
    @given(st.integers(0, 2**31 - 1))
    def test_is_subset_matches_lp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        states = _states(int(rng.integers(2, 5)))
        A = random_belief_set(states, rng)
        B = random_belief_set(states, rng)
        expected = all(_lp_in_hull(B.matrix, v) for v in A.matrix)
        assert is_subset(A, B) == expected

    @given(st.integers(0, 2**31 - 1))
    def test_prune_preserves_set(self, seed):
        rng = np.random.default_rng(seed)
        states = _states(3)
        M = random_belief_set(states, rng, max_vertices=6)
        pruned = prune_vertices(M)
        assert set_equal(M, pruned)
        assert len(pruned) <= len(M)

    def test_prune_drops_interior_point(self, states3):
        M = BeliefSet(
            states3,
            [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0), (0.0, 0.0, 1.0)],
        )
        assert len(prune_vertices(M)) == 3

    def test_symmetric_vertex_distance(self, states3):
        A = BeliefSet(states3, [(1.0, 0.0, 0.0)])
        B = BeliefSet(states3, [(0.6, 0.4, 0.0)])
        assert symmetric_vertex_distance(A, B) == pytest.approx(0.4, abs=1e-12)
        assert symmetric_vertex_distance(A, A) == 0.0


def _lp_core_min(nu: ConvexCapacity, phi: UtilityAct) -> float:
    """Independent oracle: minimize <phi, mu> over the inequality-defined
    core (mass of every subset at least its capacity, total mass one)."""
    n = len(nu.states)
    masks = list(range(1, 2**n - 1))
    A_ub = np.array(
        [[-(1.0 if mask >> i & 1 else 0.0) for i in range(n)] for mask in masks]
    )
    b_ub = -nu.values[masks]
    res = scipy.optimize.linprog(
        c=phi.payoffs,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=np.ones((1, n)),
        b_eq=[1.0],
        bounds=[(0.0, None)] * n,
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


class TestCapacitiesAndCores:
    def test_validation(self, states3):
        with pytest.raises(ValueError):
            ConvexCapacity(states3, [0.1] + [0.5] * 6 + [1.0])  # nu(empty) != 0
        with pytest.raises(ValueError):
            ConvexCapacity(states3, [0.0] + [0.5] * 6 + [0.9])  # nu(omega) != 1

    def test_monotonicity_required(self, states3):
        values = [0.0, 0.6, 0.2, 0.1, 0.3, 0.3, 0.3, 1.0]
        with pytest.raises(ValueError):
            ConvexCapacity(states3, values)

    def test_supermodularity_detects_violation(self, states3):
        # nu({s1}) + nu({s2}) > nu({s1,s2}) + nu(empty) breaks supermodularity
        mapping = {
            (): 0.0, ("s1",): 0.5, ("s2",): 0.5, ("s3",): 0.0,
            ("s1", "s2"): 0.6, ("s1", "s3"): 0.5, ("s2", "s3"): 0.5,
            ("s1", "s2", "s3"): 1.0,
        }
        nu = ConvexCapacity.from_subset_map(states3, mapping)
        assert not is_supermodular(nu)
        with pytest.raises(ValueError):
            core_of_capacity(nu)

    @given(st.integers(0, 2**31 - 1))
    def test_choquet_equals_core_minimum(self, seed):
        rng = np.random.default_rng(seed)
        states = _states(int(rng.integers(2, 5)))
        nu = random_supermodular_capacity(states, rng)
        core = core_of_capacity(nu)
        phi = UtilityAct(states, rng.uniform(-100, 300, len(states)))
        assert choquet_integral(nu, phi) == pytest.approx(
            support_value(core, phi), abs=1e-9
        )

    @given(st.integers(0, 2**31 - 1))
    def test_core_against_lp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        states = _states(int(rng.integers(2, 6)))
        nu = random_supermodular_capacity(states, rng)
        core = core_of_capacity(nu)
        n = len(states)
        # every marginal vertex satisfies all the core inequalities
        for mu in core.matrix:
            for mask in range(1, 2**n):
                covered = mu[[i for i in range(n) if mask >> i & 1]].sum()
                assert covered >= nu.values[mask] - 1e-9
        phi = UtilityAct(states, rng.uniform(-50, 50, n))
        assert support_value(core, phi) == pytest.approx(
            _lp_core_min(nu, phi), abs=1e-8
        )

    def test_additive_capacity_core_is_singleton(self, states3):
        weights = np.array([0.2, 0.3, 0.5])
        values = [0.0] + [
            weights[[i for i in range(3) if mask >> i & 1]].sum()
            for mask in range(1, 8)
        ]
        nu = ConvexCapacity(states3, values)
        core = core_of_capacity(nu)
        point = BeliefSet(states3, [weights])
        assert set_equal(core, point)
        assert len(prune_vertices(core)) == 1
