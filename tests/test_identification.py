"""Cost identification: estimator bands, canonicity checks, core recovery."""

import itertools

import numpy as np
import pytest
import scipy.optimize

from ambicap import (
    BeliefSet,
    CapModel,
    CostEstimate,
    Dictionary,
    FiniteFamily,
    Lottery,
    StateSpace,
    UtilityAct,
    check_canonical,
    estimate_cost_star,
    estimate_multi_meu_core,
    evaluate_value,
    normalize_act,
    set_equal,
    standard_bet_dictionary,
    support_value,
    symmetric_vertex_distance,
)
from ambicap.identification import _dictionary_atoms, _menu_lp
from ambicap.sampling import LotterySampler, random_cap_model
from ambicap.stock import acts_dual_self, dual_self_model, model_5051


@pytest.fixture(scope="module")
def urn_small():
    return model_5051(grid_resolution=5)


class TestDictionary:
    def test_standard_bets_shape(self, states4):
        d = standard_bet_dictionary(states4)
        assert len(d.acts) == 20  # 4 indicators, 4 negations, 12 differences
        for act in d.acts:
            assert act.payoffs[0] == 0.0
            assert np.abs(act.payoffs).max() == 1.0

    def test_rejects_unnormalized_atoms(self, states4):
        bad = UtilityAct(states4, (0.5, 1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            Dictionary((bad,))

    def test_rejects_duplicate_atoms(self, states4):
        act = normalize_act(UtilityAct(states4, (1.0, 2.0, 0.0, 0.0)))
        with pytest.raises(ValueError):
            Dictionary((act, act))

    def test_normalize_act_contract(self, states4):
        act = UtilityAct(states4, (3.0, 11.0, 3.0, -5.0))
        norm = normalize_act(act)
        assert norm.payoffs[0] == 0.0
        assert np.abs(norm.payoffs).max() == 1.0
        with pytest.raises(ValueError):
            normalize_act(UtilityAct(states4, (2.0, 2.0, 2.0, 2.0)))


def _pair_menu_oracle(model, member, dictionary, scale=1000.0, step=0.25):
    """Exhaustive search over two-atom menus with coarse weights.

    Independent of the gradient-ascent estimator: same objective, different
    search. Returns the best lower bound it can certify.
    """
    atoms = [
        UtilityAct(model.states, scale * a.payoffs) for a in dictionary.acts
    ]
    zero = Lottery.constant(model.states, 0.0)
    weights = [w * step for w in range(int(round(1.0 / step)) + 1)]
    best = 0.0
    for a, b in itertools.combinations(atoms, 2):
        h_a = support_value(member, a)
        h_b = support_value(member, b)
        for wa in weights:
            for wb in weights:
                rest = 1.0 - wa - wb
                if rest < -1e-12:
                    continue
                atoms_list = []
                if wa > 0:
                    atoms_list.append((wa, a))
                if wb > 0:
                    atoms_list.append((wb, b))
                if rest > 1e-12:
                    atoms_list.append((rest, zero.atoms[0][1]))
                if not atoms_list:
                    continue
                menu = Lottery(atoms_list)
                promised = wa * h_a + wb * h_b
                best = max(best, promised - evaluate_value(model, menu))
    return best


class TestCostEstimation:
    def test_free_member_estimates_zero(self, urn_small):
        family = urn_small.family
        member = family.member_at((1.0, 1.0))  # the full box costs nothing
        d = standard_bet_dictionary(urn_small.states)
        est = estimate_cost_star(urn_small, member, d, budget=2000)
        assert isinstance(est, CostEstimate)
        assert est.is_lower_bound
        assert 0.0 <= est.value <= 1e-3

    def test_sharpest_member_estimates_full_cost(self, urn_small):
        family = urn_small.family
        member = family.member_at((0.0, 0.0))
        d = standard_bet_dictionary(urn_small.states)
        est = estimate_cost_star(urn_small, member, d, budget=5000)
        assert 49.5 <= est.value <= 50.0 + 1e-3

    def test_oracle_confirms_center_cost(self, urn_small):
        # a coarse exhaustive search over two-atom menus must already get
        # close to 50, independent of the ascent-based estimator
        family = urn_small.family
        member = family.member_at((0.0, 0.0))
        d = standard_bet_dictionary(urn_small.states)
        best = _pair_menu_oracle(urn_small, member, d)
        assert best >= 49.9

    def test_full_simplex_estimates_zero(self, urn_small):
        member = BeliefSet(urn_small.states, np.eye(4))
        d = standard_bet_dictionary(urn_small.states)
        est = estimate_cost_star(urn_small, member, d, budget=1500)
        assert est.value == 0.0
        assert est.is_lower_bound

    def test_witness_reproduces_value(self, urn_small):
        family = urn_small.family
        d = standard_bet_dictionary(urn_small.states)
        for theta in ((0.0, 0.5), (0.5, 0.0), (0.25, 0.75)):
            member = family.member_at(theta)
            est = estimate_cost_star(urn_small, member, d, budget=3000)
            menu = est.support_witness
            promised = sum(
                p * support_value(member, a) for p, a in menu.atoms
            )
            replayed = promised - evaluate_value(urn_small, menu)
            assert abs(max(replayed, 0.0) - est.value) <= 1e-7

    def test_monotone_in_information(self, urn_small):
        # sharper boxes can never be certified cheaper than coarser ones
        family = urn_small.family
        d = standard_bet_dictionary(urn_small.states)
        values = []
        for beta in (0.0, 0.5, 1.0):
            member = family.member_at((beta, beta))
            values.append(estimate_cost_star(urn_small, member, d, 3000).value)
        assert values[0] >= values[1] - 1e-6
        assert values[1] >= values[2] - 1e-6

    def test_requires_max_type_variant(self, states4):
        family = FiniteFamily([(BeliefSet(states4, np.eye(4)), 0.0)])
        model = CapModel(states4, family, "cautious")
        d = standard_bet_dictionary(states4)
        with pytest.raises(ValueError):
            estimate_cost_star(model, family.sets[0], d, 100)


def _menu_lp_oracle(h, Hmat, costs):
    """Independent oracle: scipy's LP over (w, z) maximizing h . w - z with
    z >= Hmat[k] . w - costs[k] and w on the simplex."""
    n = h.size
    res = scipy.optimize.linprog(
        np.append(-h, 1.0),
        A_ub=np.hstack([Hmat, -np.ones((len(costs), 1))]),
        b_ub=costs,
        A_eq=np.append(np.ones(n), 0.0)[None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * n + [(None, None)],
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def _tables(model, member, atoms, thetas=None):
    payoffs = np.vstack([a.payoffs for a in atoms])
    h = (member.matrix @ payoffs.T).min(axis=0)
    family = model.family
    if thetas is None:
        return h, family.meu_matrix(payoffs), family.costs
    Hmat = np.vstack([(family.vertex_matrix_at(t) @ payoffs.T).min(axis=0) for t in thetas])
    return h, Hmat, np.array([family.cost_at(t) for t in thetas])


class TestCostLP:
    @pytest.mark.parametrize("seed", range(20))
    def test_menu_lp_matches_oracle_on_parametric_grids(self, seed, random_parametric_family):
        rng = np.random.default_rng(seed)
        states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
        family = random_parametric_family(states, rng)
        model = CapModel(states, family, "cap")
        member = family.member_at(rng.uniform(0.0, 1.0, family.n_params))
        atoms = _dictionary_atoms(standard_bet_dictionary(states), states)
        h, Hmat, costs = _tables(model, member, atoms, family.thetas)
        w = _menu_lp(h, Hmat, costs, 5000)
        assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-12)
        got = h @ w - np.max(Hmat @ w - costs)
        want = _menu_lp_oracle(h, Hmat, costs)
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))

    @pytest.mark.parametrize("seed", range(10))
    def test_estimate_is_the_full_ladder_optimum_on_finite_families(self, seed):
        # the oracle sees every rung of a scale ladder; the estimator scales
        # each dictionary act by the top rung only
        ladder = (1.0, 10.0, 100.0, 1000.0)
        rng = np.random.default_rng(seed)
        states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
        model = random_cap_model(states, rng, variant="cap")
        member = model.family.sets[int(rng.integers(len(model.family)))]
        d = standard_bet_dictionary(states)
        atoms = [UtilityAct(states, np.zeros(len(states)))] + [
            UtilityAct(states, alpha * a.payoffs) for a in d.acts for alpha in ladder
        ]
        want = _menu_lp_oracle(*_tables(model, member, atoms))
        est = estimate_cost_star(model, member, d)
        assert est.value == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))

    def test_budget_caps_the_pivots(self, urn_small):
        member = urn_small.family.member_at((0.0, 0.0))
        d = standard_bet_dictionary(urn_small.states)
        with pytest.raises(RuntimeError, match="within 1 pivots"):
            estimate_cost_star(urn_small, member, d, budget=1)

    def test_cutting_planes_beat_the_grid_witness(self, random_parametric_family):
        # An LP over the grid members alone picks a witness lottery that a
        # member off the grid values more highly, so it certifies 11 utils
        # less.  Adding each witness's optimal theta as a cut closes the gap,
        # up to the member's own cost, which no lottery can exceed.
        rng = np.random.default_rng(6)
        states = StateSpace(["s0", "s1", "s2"])
        family = random_parametric_family(states, rng)
        model = CapModel(states, family, "cap")
        theta = rng.uniform(0.0, 1.0, family.n_params)
        member = family.member_at(theta)
        d = standard_bet_dictionary(states)
        atoms = _dictionary_atoms(d, states)
        h, Hmat, costs = _tables(model, member, atoms, family.thetas)
        w = _menu_lp(h, Hmat, costs, 5000)
        grid_witness = Lottery([(p, a) for p, a in zip(w, atoms) if p > 0.0])
        certified = h @ w - evaluate_value(model, grid_witness)
        est = estimate_cost_star(model, member, d).value
        assert certified + 10.0 < est <= family.cost_at(theta) + 1e-9


class TestCheckCanonical:
    def test_urn_grid_families_are_canonical(self, urn_small):
        report = check_canonical(urn_small.family)
        assert report.canonical
        assert report.members_checked == 25
        assert not report.monotonicity_violations
        assert not report.cost_convexity_violations
        assert not report.hull_gaps

    def test_detects_monotonicity_violation(self, states3):
        wide = BeliefSet(states3, [(0.8, 0.2, 0.0), (0.2, 0.8, 0.0)])
        narrow = BeliefSet(states3, [(0.6, 0.4, 0.0), (0.4, 0.6, 0.0)])
        family = FiniteFamily([(wide, 0.0), (narrow, 0.0), (wide, 3.0)])
        report = check_canonical(family)
        assert not report.canonical
        assert report.monotonicity_violations

    def test_detects_cost_convexity_violation(self, states3):
        wide = BeliefSet(states3, [(0.2, 0.8, 0.0), (0.8, 0.2, 0.0)])
        point = BeliefSet(states3, [(0.5, 0.5, 0.0)])
        # the halfway mixture of wide and point is priced above the chord
        mid = BeliefSet(states3, [(0.35, 0.65, 0.0), (0.65, 0.35, 0.0)])
        family = FiniteFamily([(wide, 0.0), (point, 10.0), (mid, 8.0)])
        report = check_canonical(family)
        assert not report.canonical
        assert report.cost_convexity_violations

    def test_accepts_convexly_priced_mixture(self, states3):
        wide = BeliefSet(states3, [(0.2, 0.8, 0.0), (0.8, 0.2, 0.0)])
        point = BeliefSet(states3, [(0.5, 0.5, 0.0)])
        mid = BeliefSet(states3, [(0.35, 0.65, 0.0), (0.65, 0.35, 0.0)])
        family = FiniteFamily([(wide, 0.0), (point, 10.0), (mid, 4.0)])
        report = check_canonical(family)
        assert report.canonical


class TestMultiMeuCore:
    def test_recovers_dual_self_slices(self, slices_model):
        acts = acts_dual_self()
        sampler = LotterySampler(
            slices_model.states,
            seed=4,
            probes=[Lottery.dirac(acts["f6"]), Lottery.dirac(acts["f7"])],
        )
        sets = estimate_multi_meu_core(slices_model, sampler, n=60)
        assert len(sets) == 2
        for member in slices_model.family.sets:
            assert any(
                symmetric_vertex_distance(member, got) < 1e-9 for got in sets
            )

    def test_singleton_meu_recovers_one_set(self, triangle):
        sampler = LotterySampler(triangle.states, seed=1)
        sets = estimate_multi_meu_core(triangle, sampler, n=40)
        assert len(sets) == 1
        assert set_equal(sets[0], triangle.family.sets[0])
