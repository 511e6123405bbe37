"""Model evaluation: golden tables, variant semantics, structural laws."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st

import ambicap.model as model_module
from ambicap import (
    BeliefSet,
    CapModel,
    DimensionMismatchError,
    FiniteFamily,
    Lottery,
    ParametricFamily,
    StateSpace,
    UtilityAct,
    VARIANTS,
    certainty_equivalent,
    choquet_integral,
    constant_act,
    core_of_capacity,
    estimate_multi_meu_core,
    evaluate,
    evaluate_many,
    evaluate_value,
    evaluate_values,
    mix_acts,
    mix_lotteries,
    stack_lotteries,
    support_value,
)
from ambicap.sampling import (
    LotterySampler,
    random_cap_model,
    random_supermodular_capacity,
)
from ambicap.stock import (
    acts_5051,
    acts_dual_self,
    acts_ellsberg,
    acts_reflection,
    dual_self_model,
    family_5051,
    family_reflection,
    model_5051,
    model_reflection,
    triangle_model,
)

P_VAL = 50.0 / 101.0


def _dirac(act):
    return Lottery.dirac(act)


class TestGoldenTables:
    def test_urn_5051_values(self, urn_model):
        acts = acts_5051()
        want = {
            "f1": 100.0 * (1.0 + 50.0 / 101.0),
            "f2": 125.0 - 2500.0 / 101.0,
            "f3": 25.0 + 7500.0 / 101.0,
            "f4": 50.0 + 5000.0 / 101.0,
        }
        for name, act in acts.items():
            assert evaluate_value(urn_model, _dirac(act)) == pytest.approx(
                want[name], abs=1e-9
            )

    def test_urn_5051_preference_pattern(self, urn_model):
        acts = acts_5051()
        u = {k: evaluate_value(urn_model, _dirac(v)) for k, v in acts.items()}
        assert u["f1"] > u["f2"]
        assert u["f4"] > u["f3"]

    def test_reflection_values_and_perceptions(self, reflection_model):
        acts = acts_reflection()
        want = {"f5": 50.0, "f6": 70.0, "f7": 70.0, "f8": 50.0}
        for name, act in acts.items():
            res = evaluate(reflection_model, _dirac(act))
            assert res.value == pytest.approx(want[name], abs=1e-9)
        opt6 = evaluate(reflection_model, _dirac(acts["f6"])).optimal_perceptions
        opt7 = evaluate(reflection_model, _dirac(acts["f7"])).optimal_perceptions
        assert any(np.allclose(t, (1.0, 0.0), atol=1e-9) for t in opt6)
        assert any(np.allclose(t, (0.0, 1.0), atol=1e-9) for t in opt7)

    def test_ellsberg_values(self, reflection_model):
        acts = acts_ellsberg()
        assert evaluate_value(reflection_model, _dirac(acts["f9"])) == pytest.approx(
            50.0, abs=1e-9
        )
        assert evaluate_value(reflection_model, _dirac(acts["f10"])) == pytest.approx(
            -50.0, abs=1e-9
        )

    def test_dual_self_values(self, slices_model):
        acts = acts_dual_self()
        want = {"f5": 75.0, "f6": 100.0, "f7": 100.0, "f8": 75.0,
                "f9": 50.0, "f10": 25.0}
        for name, act in acts.items():
            assert evaluate_value(slices_model, _dirac(act)) == pytest.approx(
                want[name], abs=1e-9
            )

    def test_cautious_variant_flips_to_worst_member(self, states4):
        model = model_5051(variant="cautious")
        act = acts_5051()["f2"]
        assert evaluate_value(model, _dirac(act)) == pytest.approx(100.0, abs=1e-9)


class TestEvaluationContract:
    def test_certainty_equivalent_equals_value(self, urn_model):
        for act in acts_5051().values():
            res = evaluate(urn_model, _dirac(act))
            assert res.certainty_equivalent == res.value
            assert certainty_equivalent(urn_model, _dirac(act)) == res.value

    def test_optimal_perceptions_achieve_value_parametric(self, urn_model):
        family = urn_model.family
        for act in acts_5051().values():
            P = _dirac(act)
            res = evaluate(urn_model, P)
            assert res.optimal_perceptions
            eps = 1e-9 * max(1.0, abs(res.value))
            for theta in res.optimal_perceptions:
                member = family.member_at(theta)
                got = support_value(member, act) - family.cost_at(theta)
                assert abs(got - res.value) <= eps

    def test_optimal_perceptions_achieve_value_finite(self, slices_model):
        family = slices_model.family
        for act in acts_dual_self().values():
            P = _dirac(act)
            res = evaluate(slices_model, P)
            assert res.optimal_perceptions
            for idx in res.optimal_perceptions:
                got = support_value(family.sets[idx], act)
                assert abs(got - res.value) <= 1e-9 * max(1.0, abs(res.value))

    def test_constant_lottery_worth_face_value(self, states4):
        for variant in VARIANTS:
            model = random_cap_model(
                states4, np.random.default_rng(5), variant=variant
            )
            P = Lottery.constant(states4, 42.5)
            assert evaluate_value(model, P) == pytest.approx(42.5, abs=1e-9)


class TestStructuralLaws:
    @given(st.integers(0, 2**31 - 1), st.sampled_from(VARIANTS))
    def test_translation_invariance(self, seed, variant):
        rng = np.random.default_rng(seed)
        states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
        model = random_cap_model(states, rng, variant=variant)
        sampler = LotterySampler(states, seed=seed % 1000)
        P = sampler.lottery()
        shift = 13.25
        shifted = Lottery(states, P.probs, P.payoff_matrix + shift)
        assert evaluate_value(model, shifted) == pytest.approx(
            evaluate_value(model, P) + shift, abs=1e-8
        )

    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
    def test_mixture_curvature_by_variant(self, seed, lam):
        rng = np.random.default_rng(seed)
        states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
        sampler = LotterySampler(states, seed=seed % 1000)
        P, Q = sampler.pair()
        for variant in ("cap", "dual_self"):
            model = random_cap_model(states, rng, variant=variant)
            mixed = evaluate_value(model, mix_lotteries(lam, P, Q))
            chord = lam * evaluate_value(model, P) + (1 - lam) * evaluate_value(
                model, Q
            )
            assert mixed <= chord + 1e-8
        for variant in ("cautious", "double_maxmin"):
            model = random_cap_model(states, rng, variant=variant)
            mixed = evaluate_value(model, mix_lotteries(lam, P, Q))
            chord = lam * evaluate_value(model, P) + (1 - lam) * evaluate_value(
                model, Q
            )
            assert mixed >= chord - 1e-8

    @given(st.integers(0, 2**31 - 1))
    def test_pointwise_dominance_monotone(self, seed):
        rng = np.random.default_rng(seed)
        states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
        model = random_cap_model(states, rng)
        f = UtilityAct(states, rng.uniform(-100, 300, len(states)))
        g = UtilityAct(states, f.payoffs + rng.uniform(0, 50, len(states)))
        assert evaluate_value(model, _dirac(g)) >= evaluate_value(model, _dirac(f))

    def test_cap_value_bounds_members(self, urn_model):
        family = urn_model.family
        sampler = LotterySampler(urn_model.states, seed=3)
        for _ in range(20):
            P = sampler.lottery()
            value = evaluate_value(urn_model, P)
            for theta in ((0.0, 0.0), (1.0, 1.0), (0.5, 0.25)):
                member = family.member_at(theta)
                route = (
                    sum(
                        p * support_value(member, UtilityAct(P.states, row))
                        for p, row in zip(P.probs, P.payoff_matrix)
                    )
                    - family.cost_at(theta)
                )
                assert value >= route - 1e-8


class TestParametricFiniteAgreement:
    def test_grid_values_match_finite_enumeration(self):
        family = family_5051(grid_resolution=7)
        parametric = CapModel(family.states, family, "cap")
        finite = CapModel(family.states, family.to_finite(), "cap")
        sampler = LotterySampler(family.states, seed=11)
        for _ in range(25):
            P = sampler.lottery()
            v_fin = evaluate_value(finite, P)
            v_par = evaluate_value(parametric, P)
            # refinement can only improve on the shared grid
            assert v_par >= v_fin - 1e-9

    def test_corner_acts_agree_exactly(self, urn_model):
        finite = CapModel(
            urn_model.states, urn_model.family.to_finite(), "cap"
        )
        for act in acts_5051().values():
            assert evaluate_value(urn_model, _dirac(act)) == pytest.approx(
                evaluate_value(finite, _dirac(act)), abs=1e-9
            )


def _template_families(make_random):
    """The grid-11 and grid-101 urns and 20 random families."""
    families = [family_5051(11), family_5051(101)]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
        families.append(make_random(states, rng, int(rng.integers(2, 12))))
    return families


class TestParametricTemplate:
    """Every member and cost of a parametric family comes from one template
    evaluation, so a member at a grid point equals the grid bit for bit."""

    def test_point_methods_equal_the_grid(self, random_parametric_family):
        for family in _template_families(random_parametric_family):
            blocks = family._stacked.reshape(len(family.thetas), -1, len(family.states))
            for theta, block, cost in zip(family.thetas, blocks, family.costs):
                assert np.array_equal(family.vertex_matrix_at(theta), block)
                assert family.cost_at(theta) == cost

    def test_to_finite_equals_the_grid(self, random_parametric_family):
        for family in _template_families(random_parametric_family):
            finite = family.to_finite()
            assert np.array_equal(np.vstack([M.matrix for M in finite.sets]), family._stacked)
            assert np.array_equal(finite.costs, family.costs)

    def test_meu_at_equals_the_kernel_on_the_grid(self, random_parametric_family):
        for family in _template_families(random_parametric_family):
            payoffs = np.random.default_rng(3).normal(size=(6, len(family.states)))
            meu, costs = family.meu_at(family.thetas, payoffs)
            assert np.array_equal(meu, family.meu_matrix(payoffs))
            assert np.array_equal(costs, family.costs)
            for i in (0, len(family.thetas) // 2, len(family.thetas) - 1):
                meu, costs = family.meu_at(family.thetas[i], payoffs)
                assert np.array_equal(meu, family.meu_matrix(payoffs)[i : i + 1])
                assert costs.tolist() == [family.costs[i]]

    @pytest.mark.parametrize("k", range(1, 13))
    def test_point_costs_equal_the_grid_up_to_twelve_params(self, k):
        # a BLAS matrix-vector product may round a row of 8 or more terms
        # unlike a product of another number of rows; einsum does not
        rng = np.random.default_rng(k)
        states = StateSpace(["a", "b", "c"])
        base = rng.dirichlet(np.ones(3), size=2)
        coefs = np.stack([(rng.dirichlet(np.ones(3), size=2) - base) / k for _ in range(k)])
        cost_coefs = rng.uniform(-5.0, 5.0, k)
        cost_base = -np.minimum(cost_coefs, 0.0).sum()
        family = ParametricFamily(states, base, coefs, cost_base, cost_coefs, 3 if k < 8 else 2)
        payoffs = rng.normal(size=(2, 3))
        grid_meu = family.meu_matrix(payoffs)
        for i, theta in enumerate(family.thetas):
            assert family.cost_at(theta) == family.costs[i]
            meu, costs = family.meu_at(theta, payoffs)
            assert np.array_equal(meu, grid_meu[i : i + 1]) and costs.tolist() == [family.costs[i]]

    @pytest.mark.parametrize(
        "base, coefs, theta",
        [
            ([[0.5, 0.5]], [[[0.7, -0.7]]], [1.0]),  # rows sum to 1, an entry goes negative
            ([[1.2, -0.2]], [[[-0.7, 0.7]]], [0.0]),
            ([[0.5, 0.5]], [[[0.2, 0.0]]], [1.0]),  # the row sum drifts from 1
        ],
    )
    def test_invalid_template_names_its_worst_theta(self, base, coefs, theta):
        with pytest.raises(ValueError) as err:
            ParametricFamily(StateSpace(["a", "b"]), base, coefs, 0.0, [1.0], 3)
        assert str(err.value) == f"template yields invalid priors at theta={theta}"


def _ridge_model(grid_resolution):
    """Act (4, 0, -4) against vertex rows (1/4 + pi_i/8, 1/2, 1/4 - pi_i/8)
    with pi = (2x - y, 2y - x, 1 - x - y), at zero cost.  Row i's expected
    payoff is pi_i, so the value max over theta of min_i pi_i is 1/3, at
    x = y = 1/3, off every grid below and on a ridge of the score."""
    states = StateSpace(["s1", "s2", "s3"])
    pieces = np.array([[0.0, 2.0, -1.0], [0.0, -1.0, 2.0], [1.0, -1.0, -1.0]])
    entry = np.array([1.0, 0.0, -1.0]) / 8.0
    base = 0.25 + np.array([[0.0, 0.25, 0.0]]) + pieces[:, :1] * entry
    coefs = np.stack([pieces[:, j : j + 1] * entry for j in (1, 2)])
    family = ParametricFamily(states, base, coefs, 0.0, [0.0, 0.0], grid_resolution)
    act = UtilityAct(states, [4.0, 0.0, -4.0])
    return CapModel(states, family, "cap"), Lottery.dirac(act)


def _lp_value_oracle(family, P):
    """Independent oracle for the cap value: scipy's LP over (theta, t)
    maximizing sum_m p_m t_m - cost(theta) with t_m <= E_v(theta)[atom m]."""
    k, n_atoms = family.n_params, len(P)
    rows, rhs = [], []
    for v in range(family.vertex_base.shape[0]):
        for m, payoffs in enumerate(P.payoff_matrix):
            row = np.zeros(k + n_atoms)
            row[:k] = -family.vertex_coefs[:, v, :] @ payoffs
            row[k + m] = 1.0
            rows.append(row)
            rhs.append(family.vertex_base[v] @ payoffs)
    res = scipy.optimize.linprog(
        np.concatenate([family.cost_coefs, -P.probs]),
        A_ub=np.array(rows),
        b_ub=rhs,
        bounds=[(0.0, 1.0)] * k + [(None, None)] * n_atoms,
        method="highs",
    )
    assert res.status == 0
    return -res.fun - family.cost_base


class TestParametricExactness:
    @pytest.mark.parametrize("grid", [2, 11, 101])
    def test_ridge_family_value_is_one_third(self, grid):
        model, P = _ridge_model(grid)
        result = evaluate(model, P)
        assert result.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert evaluate_value(model, P) == result.value
        assert any(
            max(abs(x - 1.0 / 3.0) for x in theta) < 1e-9
            for theta in result.optimal_perceptions
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_cap_value_matches_lp_oracle(self, seed, random_parametric_family):
        rng = np.random.default_rng(seed)
        states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
        model = CapModel(states, random_parametric_family(states, rng), "cap")
        sampler = LotterySampler(states, seed=seed)
        for _ in range(5):
            P = mix_lotteries(0.5, *sampler.pair())
            want = _lp_value_oracle(model.family, P)
            assert evaluate_value(model, P) == pytest.approx(
                want, abs=1e-9 * max(1.0, abs(want))
            )


def _always_lp_values(model, probs, payoffs):
    """The max-variant values without the certificate: the best grid score,
    then ``_with_lp`` against the epigraph LP on every row."""
    values = np.max(model_module._scores(model, probs, payoffs), axis=0)
    for i, (p, x) in enumerate(zip(probs, payoffs)):
        lp = model_module._parametric_lp_max(model, p[p > 0.0], x[p > 0.0])
        values[i] = model_module._with_lp(values[i], lp)
    return values


def _zero_cost_twin(family):
    return ParametricFamily(
        family.states,
        family.vertex_base,
        family.vertex_coefs,
        0.0,
        np.zeros(family.n_params),
        family.grid_resolution,
    )


def _sampled(sampler, n):
    """n lotteries and n even mixtures of pairs, and the stacked arrays."""
    lotteries = [sampler.lottery() for _ in range(n)]
    lotteries += [mix_lotteries(0.5, *sampler.pair()) for _ in range(n)]
    n_states = len(lotteries[0].states)
    return lotteries, *stack_lotteries([(P.probs, P.payoff_matrix) for P in lotteries], n_states)


def _certificate(model, probs, payoffs):
    """The certificate's mask and the grid values of stacked lotteries."""
    scores = model_module._scores(model, probs, payoffs)
    values = np.max(scores, axis=0)
    best = np.argmax(scores, axis=0)
    return model_module._certified(model, probs, payoffs, best, values), values


@pytest.fixture
def counted_lps(monkeypatch):
    """Each ``_parametric_lp_max`` call made by the model module, appended
    to the returned list."""
    calls, solve = [], model_module._parametric_lp_max
    monkeypatch.setattr(
        model_module, "_parametric_lp_max", lambda *args: calls.append(args) or solve(*args)
    )
    return calls


class TestGridCertificate:
    """The max variants keep the best grid score where a supergradient
    certifies it as the box optimum, and solve the LP only elsewhere."""

    def test_values_equal_the_always_lp_rule(self, random_parametric_family):
        families = [make(g) for make in (family_5051, family_reflection) for g in (1, 3, 11)]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
            families.append(random_parametric_family(states, rng, int(rng.integers(2, 12))))
        for j, family in enumerate(families):
            lotteries, probs, payoffs = _sampled(LotterySampler(family.states, seed=j), 6)
            twin = _zero_cost_twin(family)
            for model in (CapModel(family.states, family, "cap"), CapModel(family.states, twin, "dual_self")):
                want = _always_lp_values(model, probs, payoffs).tolist()
                assert evaluate_values(model, probs, payoffs).tolist() == want
                assert [evaluate_value(model, P) for P in lotteries] == want

    def test_certified_values_match_the_lp_oracle(self, random_parametric_family):
        certified = 0
        for seed in range(40):
            rng = np.random.default_rng(100 + seed)
            states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
            model = CapModel(states, random_parametric_family(states, rng), "cap")
            lotteries, probs, payoffs = _sampled(LotterySampler(states, seed=seed), 5)
            mask, values = _certificate(model, probs, payoffs)
            for i in np.flatnonzero(mask):
                want = _lp_value_oracle(model.family, lotteries[i])
                assert abs(values[i] - want) <= 1e-9 * max(1.0, abs(want))
            certified += int(mask.sum())
        assert certified > 100

    def test_urn_batches_solve_no_lp(self, counted_lps):
        for model in (model_5051(11), model_reflection(11)):
            lotteries, probs, payoffs = _sampled(LotterySampler(model.states, seed=4), 100)
            evaluate_values(model, probs, payoffs)
            evaluate_value(model, lotteries[0])
        assert counted_lps == []

    @pytest.mark.parametrize("grid", [2, 3])
    def test_ridge_reaches_the_lp(self, grid, counted_lps):
        model, P = _ridge_model(grid)
        probs, payoffs = P.probs[None], P.payoff_matrix[None]
        assert _certificate(model, probs, payoffs)[0].tolist() == [False]
        assert evaluate_value(model, P) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert evaluate_values(model, probs, payoffs)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert len(counted_lps) == 2

    def test_negative_unclipped_cost_reaches_the_lp(self, states3, counted_lps):
        # the cost is -1e-10 at theta = 0, inside GROUNDED_TOL, and clipped to
        # 0 there; the score is flat in theta but for the cost, so the grid
        # best is theta = 0, where the unclipped cost rules the proof out
        family = ParametricFamily(
            states3, [[0.2, 0.3, 0.5]], np.zeros((1, 1, 3)), -1e-10, [1.0], 5
        )
        model = CapModel(states3, family, "cap")
        P = Lottery.dirac(UtilityAct(states3, [1.0, 2.0, 3.0]))
        probs, payoffs = P.probs[None], P.payoff_matrix[None]
        assert family._costs(family.thetas[:1]).tolist() == [-1e-10]
        assert _certificate(model, probs, payoffs)[0].tolist() == [False]
        assert evaluate_value(model, P) == _always_lp_values(model, probs, payoffs)[0]
        assert len(counted_lps) == 2


def _off_grid_face_model(grid_resolution):
    """Zero-cost ``cap`` model whose vertices are (x, 1 - x) and (1/3, 2/3)
    at theta = (x, y); no vertex and no cost depends on y.  The bet (1, 0)
    scores min(x, 1/3), optimal on the face x >= 1/3, which reaches off
    every grid below in both coordinates; an even mixture with the bet
    (0, 1) peaks at x = 1/3 alone."""
    states = StateSpace(["s1", "s2"])
    coefs = [[[1.0, -1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    family = ParametricFamily(states, [[0.0, 1.0], [1 / 3, 2 / 3]], coefs, 0.0, [0.0, 0.0], grid_resolution)
    return CapModel(states, family, "cap")


class TestCertifiedEvaluate:
    """``evaluate`` is ``_values`` on a batch of one: the LP runs only on a
    row the certificate rejects, and only then can its theta* be listed."""

    def test_matches_the_always_lp_evaluate(self, random_parametric_family, always_lp_evaluate):
        models = [make(g) for make in (model_5051, model_reflection) for g in (5, 9, 11)]
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            family = random_parametric_family(StateSpace(["s1", "s2", "s3"]), rng, int(rng.integers(2, 12)))
            models += [CapModel(family.states, family, v) for v in ("cap", "cautious")]
        off_grid = 0
        for j, model in enumerate(models):
            grid = set(map(tuple, model.family.thetas.tolist()))
            for P in _sampled(LotterySampler(model.states, seed=j), 20)[0]:
                got, want = evaluate(model, P), always_lp_evaluate(model, P)
                assert got.value.hex() == want.value.hex()
                assert got.optimal_perceptions == want.optimal_perceptions
                off_grid += not grid.issuperset(got.optimal_perceptions)
        # the LP's theta* is listed on rejected rows of the random families
        assert off_grid > 100, off_grid

    def test_sampled_urn_lotteries_solve_no_lp(self, counted_lps):
        for model in [make(g) for make in (model_5051, model_reflection) for g in (5, 9, 11)]:
            for P in _sampled(LotterySampler(model.states, seed=3), 20)[0]:
                evaluate(model, P)
        assert counted_lps == []
        model = model_5051(9)
        assert estimate_multi_meu_core(model, LotterySampler(model.states, seed=3), 50)
        assert counted_lps == []

    @pytest.mark.parametrize("grid", [3, 5, 11])
    def test_certified_face_off_the_grid_lists_only_grid_points(self, grid, counted_lps, always_lp_evaluate):
        model = _off_grid_face_model(grid)
        thetas = model.family.thetas
        bet = Lottery.dirac(UtilityAct(model.states, [1.0, 0.0]))
        result = evaluate(model, bet)
        assert counted_lps == []
        assert result.value == 1 / 3
        assert result.optimal_perceptions == tuple(tuple(t) for t in thetas[thetas[:, 0] > 1 / 3].tolist())
        # the LP, run regardless, lands on the face off the grid
        extra = set(always_lp_evaluate(model, bet).optimal_perceptions) - set(result.optimal_perceptions)
        assert len(extra) == 1 and extra.pop()[0] == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("grid", [3, 5, 11])
    def test_rejected_interior_optimum_lists_the_lp_theta(self, grid, counted_lps):
        model = _off_grid_face_model(grid)
        mixture = Lottery(model.states, [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        result = evaluate(model, mixture)
        assert len(counted_lps) == 1
        assert result.value == pytest.approx(0.5, abs=1e-12)
        ((x, _),) = result.optimal_perceptions
        assert x == pytest.approx(1 / 3, abs=1e-12)


class TestBatchedKernel:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_match_single_lotteries_and_an_oracle(self, variant):
        maximize = variant in ("cap", "dual_self", "choquet")
        cost_sign = -1.0 if maximize else 1.0  # zero-cost variants have no cost
        rng = np.random.default_rng(VARIANTS.index(variant))
        for _ in range(10):
            n_states = int(rng.integers(2, 7))
            states = StateSpace([f"s{i}" for i in range(n_states)])
            model = random_cap_model(states, rng, variant=variant)
            n_rows, width = int(rng.integers(1, 71)), int(rng.integers(1, 10))
            sizes = rng.integers(1, width + 1, n_rows)
            probs = np.zeros((n_rows, width))
            # padding atoms get probability 0 and arbitrary finite payoffs
            payoffs = rng.uniform(-100.0, 300.0, (n_rows, width, n_states))
            for i, a in enumerate(sizes):
                probs[i, :a] = rng.dirichlet(np.ones(a))
            values = evaluate_values(model, probs, payoffs)
            assert values.shape == (n_rows,)
            for i, a in enumerate(sizes):
                P = Lottery(states, probs[i, :a], payoffs[i, :a])
                assert values[i] == evaluate_value(model, P)
                scores = [
                    sum(
                        p * support_value(M, UtilityAct(states, x))
                        for p, x in zip(P.probs, P.payoff_matrix)
                    )
                    + cost_sign * c
                    for M, c in model.family.members
                ]
                want = max(scores) if maximize else min(scores)
                assert abs(values[i] - want) <= 1e-12 * max(1.0, abs(want))

    def test_parametric_rows_match_single_lotteries(self):
        model = model_5051(grid_resolution=3)
        sampler = LotterySampler(model.states, seed=3)
        lotteries = [sampler.lottery() for _ in range(6)]
        probs, payoffs = stack_lotteries(
            [(P.probs, P.payoff_matrix) for P in lotteries], len(model.states)
        )
        want = [evaluate_value(model, P) for P in lotteries]
        assert evaluate_values(model, probs, payoffs).tolist() == want

        # zero-padded batches on the urn at three grids, and on the ridge
        # family, whose first row is its act: only the LP reaches 1/3 there
        ridge, ridge_lottery = _ridge_model(11)
        models = [model_5051(g, v) for g in (1, 3, 11) for v in ("cap", "cautious")]
        models += [CapModel(ridge.states, ridge.family, v) for v in ("cap", "dual_self", "double_maxmin")]
        rng = np.random.default_rng(29)
        for model in models:
            n_states = len(model.states)
            for _ in range(3):
                n_rows, width = int(rng.integers(1, 71)), int(rng.integers(1, 10))
                sizes = rng.integers(1, width + 1, n_rows)
                probs = np.zeros((n_rows, width))
                payoffs = rng.uniform(-100.0, 300.0, (n_rows, width, n_states))
                for i, a in enumerate(sizes):
                    probs[i, :a] = rng.dirichlet(np.ones(a))
                if model.family is ridge.family:
                    sizes[0], probs[0] = 1, np.eye(width)[0]
                    payoffs[0, 0] = ridge_lottery.payoff_matrix[0]
                values = evaluate_values(model, probs, payoffs)
                for i, a in enumerate(sizes):
                    P = Lottery(model.states, probs[i, :a], payoffs[i, :a])
                    assert values[i] == evaluate_value(model, P)
                    if model.variant == "cap":
                        want = _lp_value_oracle(model.family, P)
                        assert abs(values[i] - want) <= 1e-9 * max(1.0, abs(want))
                if model.family is ridge.family and model.variant != "double_maxmin":
                    assert values[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rejects_arrays_of_the_wrong_shape(self, states4, urn_model):
        with pytest.raises(DimensionMismatchError):
            evaluate_values(urn_model, np.ones((2, 1)), np.zeros((2, 1, 3)))
        with pytest.raises(DimensionMismatchError):
            evaluate_values(urn_model, np.ones((2, 2)), np.zeros((2, 1, 4)))

    def test_stack_lotteries_checks_like_lottery(self):
        good = (np.array([0.25, 0.75]), np.zeros((2, 3)))
        probs, payoffs = stack_lotteries([good, (np.ones(1), np.ones((1, 3)))], 3)
        assert probs.tolist() == [[0.25, 0.75], [1.0, 0.0]]
        assert payoffs[1].tolist() == [[1.0] * 3, [0.0] * 3]
        bad = [
            (DimensionMismatchError, (np.ones(1), np.zeros((1, 2)))),
            (DimensionMismatchError, (np.array([0.5, 0.5]), np.zeros((1, 3)))),
            (ValueError, (np.ones(1), np.array([[0.0, np.inf, 0.0]]))),
            (ValueError, (np.array([1.0, 0.0]), np.zeros((2, 3)))),
            (ValueError, (np.array([0.5, 0.4]), np.zeros((2, 3)))),
        ]
        for error, lottery in bad:
            with pytest.raises(error):
                stack_lotteries([good, lottery], 3)
        with pytest.raises(ValueError, match="at least one lottery"):
            stack_lotteries([], 3)


def _padded(rng, n_states):
    """Zero-padded lotteries of 1 to 9 atoms each, as ``evaluate_values``
    takes them, whose padding atoms have arbitrary finite payoffs; with the
    atom counts."""
    n_rows, width = int(rng.integers(1, 40)), int(rng.integers(1, 10))
    sizes = rng.integers(1, width + 1, n_rows)
    probs = np.zeros((n_rows, width))
    payoffs = rng.uniform(-100.0, 300.0, (n_rows, width, n_states))
    for i, a in enumerate(sizes):
        probs[i, :a] = rng.dirichlet(np.ones(a))
    return sizes, probs, payoffs


def _bits(result):
    """A result's value, certainty equivalent and perceptions, bit for bit."""
    return result.value.hex(), result.certainty_equivalent.hex(), repr(result.optimal_perceptions)


def _assert_rows_match_evaluate(model, sizes, probs, payoffs):
    results = evaluate_many(model, probs, payoffs)
    assert len(results) == len(sizes)
    for i, a in enumerate(sizes):
        want = evaluate(model, Lottery(model.states, probs[i, :a], payoffs[i, :a]))
        assert _bits(results[i]) == _bits(want)
    return results


class TestEvaluateMany:
    """``evaluate_many`` gives each row of a padded batch the result that
    ``evaluate`` gives the row's lottery, bit for bit."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_finite_rows_match_evaluate(self, variant):
        rng = np.random.default_rng(40 + VARIANTS.index(variant))
        for _ in range(8):
            states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 7)))])
            model = random_cap_model(states, rng, variant=variant)
            _assert_rows_match_evaluate(model, *_padded(rng, len(states)))

    def test_parametric_rows_match_evaluate(self):
        ridge, ridge_lottery = _ridge_model(11)
        models = [model_5051(g, v) for g in (1, 3, 11) for v in ("cap", "cautious")]
        models += [CapModel(ridge.states, ridge.family, v) for v in ("cap", "dual_self", "double_maxmin")]
        rng = np.random.default_rng(41)
        for model in models:
            for _ in range(3):
                sizes, probs, payoffs = _padded(rng, len(model.states))
                if model.family is ridge.family:
                    # the ridge act, whose optimum only the LP reaches, off the grid
                    sizes[0], probs[0] = 1, np.eye(probs.shape[1])[0]
                    payoffs[0, 0] = ridge_lottery.payoff_matrix[0]
                results = _assert_rows_match_evaluate(model, sizes, probs, payoffs)
                if model.family is ridge.family and model.variant != "double_maxmin":
                    grid = set(map(tuple, model.family.thetas.tolist()))
                    assert not grid.issuperset(results[0].optimal_perceptions)

    def test_rejected_rows_match_the_always_lp_evaluate(self, random_parametric_family, always_lp_evaluate):
        rejected = 0
        for seed in range(15):
            rng = np.random.default_rng(400 + seed)
            states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
            model = CapModel(states, random_parametric_family(states, rng, int(rng.integers(2, 8))), "cap")
            lotteries, probs, payoffs = _sampled(LotterySampler(states, seed=seed), 8)
            results = evaluate_many(model, probs, payoffs)
            for i in np.flatnonzero(~_certificate(model, probs, payoffs)[0]):
                assert _bits(results[i]) == _bits(always_lp_evaluate(model, lotteries[i]))
                rejected += 1
            assert [_bits(r) for r in results] == [_bits(evaluate(model, P)) for P in lotteries]
        assert rejected > 60, rejected

    def test_chunks_longer_than_one_kernel_split(self, monkeypatch, random_parametric_family):
        calls, values = [], model_module._values
        monkeypatch.setattr(model_module, "_values", lambda *args: calls.append(len(args[1])) or values(*args))
        late_lp_rows = 0
        for seed in range(6):
            rng = np.random.default_rng(500 + seed)
            states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
            model = CapModel(states, random_parametric_family(states, rng, int(rng.integers(2, 8))), "cap")
            lotteries, probs, payoffs = _sampled(LotterySampler(states, seed=seed), 20)
            step = 7
            entries = step * len(model.family._stacked) * probs.shape[1]
            monkeypatch.setattr(model_module, "_KERNEL_ENTRIES", entries)
            calls.clear()
            results = evaluate_many(model, probs, payoffs)
            assert calls == [min(step, len(probs) - i) for i in range(0, len(probs), step)]
            assert [_bits(r) for r in results] == [_bits(evaluate(model, P)) for P in lotteries]
            assert evaluate_values(model, probs, payoffs).tolist() == [r.value for r in results]
            late_lp_rows += int((~_certificate(model, probs, payoffs)[0][step:]).sum())
        # rows past the first split reach the LP, keyed by their place in the chunk
        assert late_lp_rows > 20, late_lp_rows

    def test_rejects_arrays_of_the_wrong_shape(self, urn_model):
        with pytest.raises(DimensionMismatchError):
            evaluate_many(urn_model, np.ones((2, 1)), np.zeros((2, 1, 3)))


class TestChoquetVariant:
    @given(st.integers(0, 2**31 - 1))
    def test_choquet_matches_core_route(self, seed):
        rng = np.random.default_rng(seed)
        states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
        pairs = []
        for _ in range(int(rng.integers(1, 4))):
            nu = random_supermodular_capacity(states, rng)
            pairs.append((nu, float(rng.uniform(0, 10))))
        pairs[int(rng.integers(0, len(pairs)))] = (pairs[0][0], 0.0)
        choquet_model = CapModel.from_capacities(states, pairs)
        core_family = FiniteFamily(
            [(core_of_capacity(nu), cost) for nu, cost in pairs]
        )
        cap_model = CapModel(states, core_family, "cap")
        sampler = LotterySampler(states, seed=seed % 997)
        for _ in range(5):
            P = sampler.lottery()
            assert evaluate_value(choquet_model, P) == evaluate_value(cap_model, P)

    def test_single_capacity_is_choquet_integral(self, states3):
        rng = np.random.default_rng(4)
        nu = random_supermodular_capacity(states3, rng)
        model = CapModel.from_capacities(states3, [(nu, 0.0)])
        phi = UtilityAct(states3, (5.0, -3.0, 11.0))
        assert evaluate_value(model, _dirac(phi)) == pytest.approx(
            choquet_integral(nu, phi), abs=1e-12
        )

    def test_rejects_member_strictly_inside_its_envelope_core(self):
        triangle = triangle_model()
        with pytest.raises(ValueError, match="envelope's core"):
            CapModel(triangle.states, triangle.family, "choquet")

    def test_rejects_member_with_non_supermodular_envelope(self, states4):
        # with states r, b, g, p: nu(rbg) + nu(r) = 0.5 + 0 < nu(rb) + nu(rg) = 1
        M = BeliefSet(states4, [[0.0, 0.5, 0.5, 0.0], [0.5, 0.0, 0.0, 0.5]])
        with pytest.raises(ValueError, match="supermodular"):
            CapModel(states4, FiniteFamily([(M, 0.0)]), "choquet")

    def test_rejects_parametric_family(self):
        family = family_5051(3)
        with pytest.raises(ValueError, match="finite family"):
            CapModel(family.states, family, "choquet")


def _reference_merge(probs, rows):
    """Atom-by-atom merge: identical rows (byte for byte) keep their first
    position, and their probabilities are summed in order."""
    merged = {}
    for p, row in zip(probs, rows):
        key = np.asarray(row, dtype=float).tobytes()
        if key in merged:
            merged[key][0] += p
        else:
            merged[key] = [p, row]
    return [p for p, _ in merged.values()], [row for _, row in merged.values()]


def _assert_bitwise(P, reference):
    probs, rows = reference
    assert P.probs.tobytes() == np.array(probs, dtype=float).tobytes()
    assert P.payoff_matrix.tobytes() == np.array(rows, dtype=float).tobytes()


@st.composite
def _lottery_rows(draw, n_states):
    """(probs, rows) with rows drawn from a few distinct ones, so that
    duplicates are common; 0.0 and -0.0 count as different rows."""
    payoff = st.sampled_from([0.0, -0.0, 1.0, 2.5]) | st.floats(-1e3, 1e3)
    distinct = draw(st.lists(st.lists(payoff, min_size=n_states, max_size=n_states),
                             min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(picks),
                                     max_size=len(picks))))
    return (weights / weights.sum()).tolist(), picks


# 5e-324 * p underflows to 0.0 for p < 1/2, which mix_lotteries must drop
_mixture_weights = st.sampled_from([0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0)


class TestConstructionRules:
    def test_lottery_merges_duplicate_acts(self, states4):
        f = constant_act(states4, 3.0)
        P = Lottery(
            states4, [0.25, 0.25, 0.5], [f.payoffs, f.payoffs, constant_act(states4, 9.0).payoffs]
        )
        assert len(P) == 2
        assert P.probs.sum() == pytest.approx(1.0)

    def test_lottery_rejects_bad_probabilities(self, states4):
        f = constant_act(states4, 1.0)
        g = constant_act(states4, 2.0)
        with pytest.raises(ValueError):
            Lottery(states4, [0.7, 0.2], [f.payoffs, g.payoffs])
        with pytest.raises(ValueError):
            Lottery(states4, [1.2, -0.2], [f.payoffs, g.payoffs])

    def test_lottery_rejects_bad_payoff_matrices(self, states4):
        # the errors a per-atom UtilityAct raised
        with pytest.raises(DimensionMismatchError):
            Lottery(states4, [0.5, 0.5], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(DimensionMismatchError):
            Lottery(states4, [0.5, 0.5], [[1.0] * 4])
        with pytest.raises(ValueError, match="finite"):
            Lottery(states4, [0.5, 0.5], [[1.0] * 4, [1.0, np.nan, 1.0, 1.0]])

    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(_lottery_rows(n), _lottery_rows(n))),
           _mixture_weights)
    def test_merge_matches_a_dict_reference(self, rows, lam):
        states = StateSpace([f"s{i}" for i in range(len(rows[0][1][0]))])
        P, Q = (Lottery(states, *r) for r in rows)
        P_ref, Q_ref = (_reference_merge(*r) for r in rows)
        _assert_bitwise(P, P_ref)
        _assert_bitwise(Q, Q_ref)
        mixed = [(lam * p, row) for p, row in zip(*P_ref)]
        mixed += [((1.0 - lam) * p, row) for p, row in zip(*Q_ref)]
        kept = [(p, row) for p, row in mixed if p > 0.0]
        _assert_bitwise(mix_lotteries(lam, P, Q), _reference_merge(*zip(*kept)))

    def test_mix_acts(self, states4):
        f = UtilityAct(states4, (0.0, 4.0, 0.0, 0.0))
        g = UtilityAct(states4, (8.0, 0.0, 0.0, 0.0))
        h = mix_acts(0.25, f, g)
        assert h.payoffs.tolist() == [6.0, 1.0, 0.0, 0.0]

    def test_mix_lotteries_drops_underflowing_atoms(self, states4):
        # 5e-324 * 0.25 rounds to 0.0, which no lottery atom may carry;
        # 5e-324 * 0.75 rounds to 5e-324 and stays
        f = UtilityAct(states4, (0.0, 4.0, 0.0, 0.0))
        P = Lottery(states4, [0.25, 0.75], [f.payoffs, [1.0] * 4])
        Q = Lottery.constant(states4, 2.0)
        mixed = mix_lotteries(5e-324, P, Q)
        assert mixed.payoff_matrix.tolist() == [[1.0] * 4, [2.0] * 4]

    def test_grid_holds_the_corners_in_lexicographic_order(self):
        assert family_5051(1).thetas.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        assert family_5051(3).thetas.tolist() == [
            [0.0, 0.0], [0.0, 0.5], [0.0, 1.0],
            [0.5, 0.0], [0.5, 0.5], [0.5, 1.0],
            [1.0, 0.0], [1.0, 0.5], [1.0, 1.0],
        ]

    def test_family_requires_grounded_costs(self, states4):
        M = BeliefSet(states4, np.eye(4))
        with pytest.raises(ValueError):
            FiniteFamily([(M, 5.0)])
        with pytest.raises(ValueError):
            FiniteFamily([(M, -1.0)])

    def test_zero_cost_variants_reject_costs(self, states4):
        M = BeliefSet(states4, np.eye(4))
        N = BeliefSet(states4, [np.full(4, 0.25)])
        family = FiniteFamily([(M, 0.0), (N, 2.0)])
        for variant in ("dual_self", "double_maxmin"):
            with pytest.raises(ValueError):
                CapModel(states4, family, variant)

    def test_unknown_variant_rejected(self, states4):
        M = BeliefSet(states4, np.eye(4))
        with pytest.raises(ValueError):
            CapModel(states4, FiniteFamily([(M, 0.0)]), "optimist")

    def test_dual_self_equals_zero_cost_cap(self, slices_model):
        family = slices_model.family
        cap_twin = CapModel(slices_model.states, family, "cap")
        sampler = LotterySampler(slices_model.states, seed=2)
        for _ in range(40):
            P = sampler.lottery()
            assert evaluate_value(slices_model, P) == pytest.approx(
                evaluate_value(cap_twin, P), abs=1e-12
            )

    def test_double_maxmin_is_worst_member_meu(self, states4):
        rng = np.random.default_rng(9)
        model = random_cap_model(states4, rng, variant="double_maxmin")
        sampler = LotterySampler(states4, seed=8)
        for _ in range(40):
            P = sampler.lottery()
            per_member = model.family.meu_matrix(P.payoff_matrix) @ P.probs
            assert evaluate_value(model, P) == pytest.approx(
                float(per_member.min()), abs=1e-12
            )
