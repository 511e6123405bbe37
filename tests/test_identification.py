"""Cost identification: estimator bands, canonicity checks, core recovery."""

import itertools

import numpy as np
import pytest
import scipy.optimize

import ambicap.geometry as geometry
import ambicap.identification as identification
import ambicap.model as model_module
from ambicap import (
    BeliefSet,
    CapModel,
    CostEstimate,
    Dictionary,
    FiniteFamily,
    Lottery,
    ParametricFamily,
    StateSpace,
    UtilityAct,
    check_canonical,
    estimate_cost_star,
    estimate_multi_meu_core,
    evaluate,
    evaluate_value,
    is_subset,
    mix_sets,
    normalize_act,
    prune_vertices,
    set_equal,
    standard_bet_dictionary,
    support_value,
    symmetric_vertex_distance,
)
from ambicap.geometry import INCLUSION_TOL, convex_combination_gap
from ambicap.identification import _dictionary_payoffs, _menu_lp, _probe_directions, _support_vector
from ambicap.sampling import LotterySampler, random_cap_model, random_finite_family
from ambicap.stock import (
    STATES_4,
    acts_dual_self,
    dual_self_model,
    family_5051,
    family_reflection,
    model_5051,
    model_reflection,
)


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
                    atoms_list.append((wa, a.payoffs))
                if wb > 0:
                    atoms_list.append((wb, b.payoffs))
                if rest > 1e-12:
                    atoms_list.append((rest, zero.payoff_matrix[0]))
                if not atoms_list:
                    continue
                menu = Lottery(model.states, *zip(*atoms_list))
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
                p * support_value(member, UtilityAct(menu.states, row))
                for p, row in zip(menu.probs, menu.payoff_matrix)
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

    def test_cutting_planes_stop_at_their_bound(self, urn_small, monkeypatch):
        # an evaluator that always beats the cost LP asks for a cut each round
        lps, menu_lp = [], identification._menu_lp
        monkeypatch.setattr(identification, "_menu_lp", lambda *args: lps.append(1) or menu_lp(*args))
        beaten = model_module.EvaluationResult(1e6, 1e6, ((0.5, 0.5),))
        monkeypatch.setattr(identification, "evaluate", lambda model, P: beaten)
        member = urn_small.family.member_at((0.0, 0.0))
        with pytest.raises(RuntimeError, match=f"after {identification.MAX_COST_LPS} LPs"):
            estimate_cost_star(urn_small, member, standard_bet_dictionary(urn_small.states))
        assert len(lps) == identification.MAX_COST_LPS

    @pytest.mark.parametrize("grid", [5, 101])
    def test_stock_urns_need_one_cost_lp(self, grid, monkeypatch):
        lps, menu_lp = [], identification._menu_lp
        monkeypatch.setattr(identification, "_menu_lp", lambda *args: lps.append(1) or menu_lp(*args))
        d = standard_bet_dictionary(STATES_4)
        members = [
            (m, m.family.member_at(t))
            for m in (model_5051(grid), model_reflection(grid))
            for t in m.family.thetas[:: max(1, len(m.family) // 18)]
        ]
        for m, M in members:
            estimate_cost_star(m, M, d)
        assert len(lps) == len(members)

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


def _tables(model, member, payoffs, thetas=None):
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
        payoffs = _dictionary_payoffs(standard_bet_dictionary(states), states)
        h, Hmat, costs = _tables(model, member, payoffs, family.thetas)
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
        payoffs = np.vstack(
            [np.zeros(len(states))] + [alpha * a.payoffs for a in d.acts for alpha in ladder]
        )
        want = _menu_lp_oracle(*_tables(model, member, payoffs))
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
        payoffs = _dictionary_payoffs(d, states)
        h, Hmat, costs = _tables(model, member, payoffs, family.thetas)
        w = _menu_lp(h, Hmat, costs, 5000)
        grid_witness = Lottery(states, w[w > 0.0], payoffs[w > 0.0])
        certified = h @ w - evaluate_value(model, grid_witness)
        est = estimate_cost_star(model, member, d).value
        assert certified + 10.0 < est <= family.cost_at(theta) + 1e-9

    def test_estimates_equal_those_of_the_always_lp_evaluate(self, monkeypatch, always_lp_evaluate):
        # the cutting-plane loop takes its cuts from ``optimal_perceptions``,
        # which list an LP theta* only where the grid certificate fails
        d = standard_bet_dictionary(STATES_4)
        members = [(m, m.family.member_at(t)) for m in (model_5051(5), model_reflection(5)) for t in m.family.thetas]
        monkeypatch.setattr(identification, "evaluate", always_lp_evaluate)
        want = [estimate_cost_star(m, M, d) for m, M in members]
        monkeypatch.undo()
        got = [estimate_cost_star(m, M, d) for m, M in members]
        for est, ref in zip(got, want):
            assert (est.value.hex(), est.is_lower_bound) == (ref.value.hex(), ref.is_lower_bound)
            assert est.support_witness.probs.tobytes() == ref.support_witness.probs.tobytes()
            assert est.support_witness.payoff_matrix.tobytes() == ref.support_witness.payoff_matrix.tobytes()

    def test_cut_estimates_match_those_of_the_always_lp_evaluate(
        self, monkeypatch, always_lp_evaluate, random_parametric_family
    ):
        # on random families the loop adds cuts, and where a certified row's
        # list lacks an off-grid tie it may add other ones
        states, cases = StateSpace(["s0", "s1", "s2"]), []
        for seed in range(12):
            rng = np.random.default_rng(seed)
            family = random_parametric_family(states, rng)
            model = CapModel(states, family, "cap")
            cases += [(model, family.member_at(rng.uniform(0.0, 1.0, family.n_params))) for _ in range(2)]
        d = standard_bet_dictionary(states)
        monkeypatch.setattr(identification, "evaluate", always_lp_evaluate)
        want = [estimate_cost_star(m, M, d).value for m, M in cases]
        monkeypatch.undo()
        for (m, M), ref in zip(cases, want):
            assert estimate_cost_star(m, M, d).value == pytest.approx(ref, abs=1e-9 * max(1.0, abs(ref)))


def _reference_check_canonical(family):
    """The audit as one LP per cost-ordered pair and per near candidate:
    every field of ``CanonicalReport``, in its order."""
    if isinstance(family, ParametricFamily):
        family = family.to_finite()
    sets, costs, K = family.sets, family.costs, len(family.sets)
    lambdas = (0.25, 0.5, 0.75)
    mono = []
    for i in range(K):
        for j in range(K):
            if i != j and costs[i] < costs[j] - 1e-9 and is_subset(sets[i], sets[j]):
                mono.append((i, j, float(costs[i]), float(costs[j])))
    dirs = _probe_directions(family.states)
    fingerprints = np.vstack([_support_vector(M, dirs) for M in sets])
    convexity = []
    for i in range(K):
        for j in range(i + 1, K):
            for lam in lambdas:
                target = lam * fingerprints[i] + (1.0 - lam) * fingerprints[j]
                bound = lam * costs[i] + (1.0 - lam) * costs[j]
                near = np.flatnonzero(np.abs(fingerprints - target).max(axis=1) <= 1e-9)
                for k in near:
                    mixed = mix_sets(lam, sets[i], sets[j])
                    if not (is_subset(mixed, sets[k]) and is_subset(sets[k], mixed)):
                        continue
                    if costs[k] > bound + 1e-9:
                        convexity.append((i, j, float(lam), int(k), float(costs[k]), float(bound)))
                    break
    return (not (mono or convexity), tuple(mono), tuple(convexity), (), K, lambdas)


def _fields(report):
    return (
        report.canonical,
        report.monotonicity_violations,
        report.cost_convexity_violations,
        report.hull_gaps,
        report.members_checked,
        report.lambdas,
    )


def _audit_family(seed):
    """Random finite family, extended by up to five members that are a
    copy priced higher, a shrunken copy priced lower, a mixture priced
    off its chord, or a plain copy; every member is its own object."""
    rng = np.random.default_rng(seed)
    states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
    members = list(random_finite_family(states, rng, max_members=8, max_cost=20.0).members)
    for _ in range(int(rng.integers(0, 6))):
        kind = int(rng.integers(4))
        (M, c), (M2, c2) = (members[int(rng.integers(len(members)))] for _ in range(2))
        if kind == 0:
            members.append((BeliefSet(states, M.matrix), c + rng.uniform(0.5, 5.0)))
        elif kind == 1:
            shrunk = 0.5 * M.matrix + 0.5 * M.matrix.mean(axis=0)
            members.append((BeliefSet(states, shrunk), max(0.0, c - rng.uniform(0.5, 5.0))))
        elif kind == 2:
            lam = float(rng.choice([0.25, 0.5, 0.75]))
            chord = lam * c + (1.0 - lam) * c2
            members.append((mix_sets(lam, M, M2), max(0.0, chord + rng.uniform(-2.0, 2.0))))
        else:
            members.append((BeliefSet(states, M.matrix), c))
    return FiniteFamily([members[p] for p in rng.permutation(len(members))])


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

    @pytest.mark.parametrize("grid", [3, 5])
    @pytest.mark.parametrize("make", [family_5051, family_reflection])
    def test_stock_families_match_the_reference_loop(self, make, grid):
        family = make(grid)
        assert _fields(check_canonical(family)) == _reference_check_canonical(family)

    def test_random_families_match_the_reference_loop(self):
        failing = 0
        for seed in range(40):
            family = _audit_family(seed)
            want = _reference_check_canonical(family)
            assert _fields(check_canonical(family)) == want, seed
            failing += not want[0]
        assert failing >= 20

    @pytest.mark.parametrize("kind", ["duplicate", "nested", "mixture"])
    def test_planted_violations_match_the_reference_loop(self, states3, kind):
        wide = BeliefSet(states3, [(0.2, 0.8, 0.0), (0.8, 0.2, 0.0)])
        point = BeliefSet(states3, [(0.5, 0.5, 0.0)])
        mid = BeliefSet(states3, [(0.35, 0.65, 0.0), (0.65, 0.35, 0.0)])
        corner = BeliefSet(states3, [(0.1, 0.1, 0.8)])
        base = [(wide, 0.0), (point, 10.0), (mid, 5.0), (corner, 2.0)]
        planted = {
            "duplicate": (BeliefSet(states3, mid.matrix), 7.0),
            "nested": (BeliefSet(states3, [(0.4, 0.6, 0.0)]), 1.0),
            "mixture": (mix_sets(0.5, mid, corner), 6.0),
        }[kind]
        family = FiniteFamily(base + [planted])
        report = check_canonical(family)
        assert bool(report.cost_convexity_violations) == (kind == "mixture")
        assert bool(report.monotonicity_violations) == (kind != "mixture")
        assert _fields(report) == _reference_check_canonical(family)

    def test_prefilter_skips_only_pairs_the_lp_rejects(self, monkeypatch):
        checked = []
        for seed in range(30):
            family = _audit_family(seed)
            sets, costs = family.sets, family.costs
            index = {id(M): i for i, M in enumerate(sets)}
            tested = set()

            def recording(M, M2, tol=INCLUSION_TOL):
                if id(M) in index and id(M2) in index:
                    tested.add((index[id(M)], index[id(M2)]))
                return is_subset(M, M2, tol)

            monkeypatch.setattr(identification, "is_subset", recording)
            check_canonical(family)
            monkeypatch.undo()
            for i, j in itertools.permutations(range(len(sets)), 2):
                if costs[i] < costs[j] - 1e-9 and (i, j) not in tested:
                    assert not is_subset(sets[i], sets[j]), (seed, i, j)
                    checked.append((seed, i, j))
        assert len(checked) > 500

    def test_nested_pair_within_the_tolerance_is_reported(self, states3):
        # the inner point sits off the outer segment's plane, with a phase-1
        # gap of half the tolerance: is_subset accepts it, so the prefilter
        # must keep the pair although the inner support value along -s3
        # lies below the outer one
        outer = BeliefSet(states3, [(0.8, 0.2, 0.0), (0.2, 0.8, 0.0)])
        b = 0.25 * INCLUSION_TOL
        inner = BeliefSet(states3, [(0.5 - b / 2, 0.5 - b / 2, b)])
        gap = convex_combination_gap(outer.matrix, inner.matrix[0])
        assert gap == pytest.approx(0.5 * INCLUSION_TOL, rel=1e-3)
        family = FiniteFamily([(inner, 0.0), (outer, 3.0)])
        report = check_canonical(family)
        assert report.monotonicity_violations == ((0, 1, 0.0, 3.0),)
        assert _fields(report) == _reference_check_canonical(family)

    @pytest.mark.parametrize("mid_costs", [(4.0, 8.0), (8.0, 4.0)])
    def test_first_set_equal_near_candidate_decides(self, states3, mid_costs):
        # members 2 and 3 are the same halfway mixture of 0 and 1, whose
        # chord is 5: the first of them decides, whether or not the second
        # breaks the bound
        wide = BeliefSet(states3, [(0.2, 0.8, 0.0), (0.8, 0.2, 0.0)])
        point = BeliefSet(states3, [(0.5, 0.5, 0.0)])
        mid = [(0.35, 0.65, 0.0), (0.65, 0.35, 0.0)]
        family = FiniteFamily(
            [(wide, 0.0), (point, 10.0)] + [(BeliefSet(states3, mid), c) for c in mid_costs]
        )
        report = check_canonical(family)
        halfway = [v for v in report.cost_convexity_violations if v[:3] == (0, 1, 0.5)]
        assert halfway == ([] if mid_costs[0] < 5.0 else [(0, 1, 0.5, 2, 8.0, 5.0)])
        assert _fields(report) == _reference_check_canonical(family)

    @pytest.mark.parametrize("shift", [-1e-10, 1e-10])
    def test_near_candidate_on_either_side_of_the_mixture_is_found(self, states3, shift):
        # the halfway mixture of 0 and 1, moved by 1e-10 along s1 - s2: its
        # support values lie within 1e-9 of the mixture's, on either side
        wide = BeliefSet(states3, [(0.2, 0.8, 0.0), (0.8, 0.2, 0.0)])
        point = BeliefSet(states3, [(0.5, 0.5, 0.0)])
        moved = BeliefSet(states3, [(0.35 + shift, 0.65 - shift, 0.0), (0.65 + shift, 0.35 - shift, 0.0)])
        family = FiniteFamily([(wide, 0.0), (point, 10.0), (moved, 8.0)])
        report = check_canonical(family)
        assert report.cost_convexity_violations == ((0, 1, 0.5, 2, 8.0, 5.0),)
        assert _fields(report) == _reference_check_canonical(family)

    def test_canonical_stock_family_solves_no_lp(self, monkeypatch):
        calls = []
        solve = geometry._simplex

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(geometry, "_simplex", counting)
        assert check_canonical(family_5051(5)).canonical
        assert calls == []

    def test_parametric_family_is_audited_in_place(self, monkeypatch):
        family, built, unrolled = family_5051(5), [], []
        init, to_finite = BeliefSet.__init__, ParametricFamily.to_finite
        monkeypatch.setattr(BeliefSet, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        monkeypatch.setattr(ParametricFamily, "to_finite", lambda self: unrolled.append(self) or to_finite(self))
        assert check_canonical(family).canonical
        assert built == [] and unrolled == []

    def test_parametric_violations_match_the_reference_loop(self, states3, monkeypatch):
        # theta[0] widens a segment and theta[1] moves it towards s3; a wider
        # segment costs more, so each pair with the same theta[1] is a
        # violation, reported by its positions in family.thetas
        family = ParametricFamily(
            states3,
            [(0.5, 0.5, 0.0), (0.5, 0.5, 0.0)],
            [[(0.3, -0.3, 0.0), (-0.3, 0.3, 0.0)], [(-0.1, -0.1, 0.2), (-0.1, -0.1, 0.2)]],
            0.0,
            [4.0, 1.0],
            3,
        )
        built = []
        member_at = ParametricFamily.member_at
        monkeypatch.setattr(ParametricFamily, "member_at", lambda self, t: built.append(t) or member_at(self, t))
        report = check_canonical(family)
        monkeypatch.undo()
        assert report.monotonicity_violations[:2] == ((0, 3, 0.0, 2.0), (0, 6, 0.0, 4.0))
        assert len(report.monotonicity_violations) == 9
        assert 0 < len(built) <= len(family.thetas)  # each member at most once
        assert _fields(report) == _reference_check_canonical(family)


def _unique_count_column(fingerprints):
    """The probe column as chosen before one sort replaced the per-column
    ``np.unique`` calls."""
    return max(range(fingerprints.shape[1]), key=lambda c: np.unique(fingerprints[:, c]).size)


def test_probe_column_is_the_first_with_the_most_distinct_values():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 8)))
        # few distinct values, so columns tie, and zeros of either sign
        fingerprints = rng.integers(-2, 3, size=shape) * float(rng.choice([0.5, 1.0]))
        fingerprints[rng.random(shape) < 0.3] = -0.0
        assert identification._probe_column(fingerprints) == _unique_count_column(fingerprints)


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

    @pytest.mark.parametrize("n", (0, -5))
    def test_fewer_than_one_sample_rejected(self, slices_model, n):
        with pytest.raises(ValueError, match="at least one sample"):
            estimate_multi_meu_core(slices_model, LotterySampler(slices_model.states, seed=0), n)

    def test_singleton_meu_recovers_one_set(self, triangle):
        sampler = LotterySampler(triangle.states, seed=1)
        sets = estimate_multi_meu_core(triangle, sampler, n=40)
        assert len(sets) == 1
        assert set_equal(sets[0], triangle.family.sets[0])

    @pytest.mark.parametrize(
        "case",
        ["urn"]
        + [f"random{seed}" for seed in range(10)]
        + [f"{variant}{seed}" for variant in ("dual_self", "choquet") for seed in range(5)],
    )
    def test_same_sets_as_pruning_every_tag(self, urn_small, monkeypatch, case):
        if case == "urn":
            model = urn_small
        else:
            # random<seed> is a random cap model
            kind = case.rstrip("0123456789")
            rng = np.random.default_rng(int(case[len(kind) :]))
            states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
            model = random_cap_model(states, rng, variant="cap" if kind == "random" else kind)
        family = model.family

        def reference(sampler, n):
            found, tags = [], []
            for _ in range(n):
                for tag in evaluate(model, sampler.lottery()).optimal_perceptions:
                    tags.append(tag)
                    if isinstance(family, FiniteFamily):
                        candidate = family.sets[tag]
                    else:
                        candidate = family.member_at(np.asarray(tag))
                    pruned = prune_vertices(candidate)
                    if all(symmetric_vertex_distance(pruned, e) >= 1e-9 for e in found):
                        found.append(pruned)
            return found, tags

        want, tags = reference(LotterySampler(model.states, seed=3), 50)
        pruned = []
        prune = identification.prune_vertices

        def recording(M):
            pruned.append(M)
            return prune(M)

        monkeypatch.setattr(identification, "prune_vertices", recording)
        got = estimate_multi_meu_core(model, LotterySampler(model.states, seed=3), 50)
        assert len(pruned) == len(set(tags)) < len(tags)
        assert [M.matrix.tobytes() for M in got] == [M.matrix.tobytes() for M in want]

    def test_scores_its_lotteries_in_one_kernel_call(self, monkeypatch):
        model = model_5051(9)
        calls, values = [], model_module._values
        monkeypatch.setattr(model_module, "_values", lambda *args: calls.append(len(args[1])) or values(*args))
        assert estimate_multi_meu_core(model, LotterySampler(model.states, seed=0), 50)
        assert calls == [50]
