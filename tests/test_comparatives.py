"""Comparative statics between models and families."""

import logging

import numpy as np
import pytest

import ambicap.comparatives
from ambicap import (
    CapModel,
    ComparativeVerdict,
    DimensionMismatchError,
    Lottery,
    Prior,
    StateSpace,
    dominates_benefit,
    evaluate,
    evaluate_value,
    higher_filtering_incentives,
    more_tolerant_ambiguity,
    more_tolerant_ea_randomization,
    shares_optimal_perception,
    shares_optimal_perception_detail,
)
from ambicap.comparatives import SHARES_TOL, perceptions_intersect
from ambicap.model import mix_lotteries, serialize_lottery
from ambicap.sampling import LotterySampler, lottery_row, random_cap_model
from ambicap.stock import (
    acts_5051,
    eu_model,
    family_5051,
    model_5051,
    model_reflection,
    random_box_5051_family,
)


@pytest.fixture(scope="module")
def urn():
    return model_5051(grid_resolution=9)


@pytest.fixture(scope="module")
def center_eu(urn):
    p = 50.0 / 101.0
    q = 1.0 - p
    prior = Prior(urn.states, (p / 2, p / 2, q / 2, q / 2))
    return eu_model(urn.states, prior)


@pytest.fixture(scope="module")
def free_urn(urn):
    family = family_5051(grid_resolution=9)
    free = type(family)(
        family.states,
        family.vertex_base,
        family.vertex_coefs,
        0.0,
        np.zeros(2),
        9,
        param_names=family.param_names,
    )
    return CapModel(urn.states, free, "cap")


class TestVerdictContract:
    def test_failing_verdict_needs_counterexample(self):
        with pytest.raises(ValueError):
            ComparativeVerdict(False, None, 10)

    def test_passing_verdict(self):
        v = ComparativeVerdict(True, None, 10)
        assert v.holds and v.samples_used == 10


class TestSharesOptimalPerception:
    def test_linear_segment_shares(self, urn):
        acts = acts_5051()
        # f2 and f3 share the optimal box (full red-blue spread, no
        # green-purple spread), so value is affine between them
        P, Q = Lottery.dirac(acts["f2"]), Lottery.dirac(acts["f3"])
        assert shares_optimal_perception(urn, P, Q)

    def test_disjoint_argmax_does_not_share(self, urn):
        acts = acts_5051()
        P, Q = Lottery.dirac(acts["f1"]), Lottery.dirac(acts["f4"])
        linear, intersects = shares_optimal_perception_detail(urn, P, Q)
        assert not linear and not intersects

    def test_cross_check_agreement_on_sample(self, urn):
        sampler = LotterySampler(urn.states, seed=21)
        diagnostics = []
        agree = 0
        for _ in range(150):
            P, Q = sampler.pair()
            linear, intersects = shares_optimal_perception_detail(urn, P, Q)
            agree += linear == intersects
            shares_optimal_perception(urn, P, Q, diagnostics=diagnostics)
        assert agree >= 149
        assert len(diagnostics) == 150 - agree

    def test_linearity_and_argmax_overlap_never_disagree(self, caplog):
        # 40 random finite models and the two grid-5 urns under 4 seeds, 25
        # pairs each; shares_optimal_perception logs any disagreement
        models = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
            models.append((random_cap_model(states, rng, variant="cap"), seed))
        for urn in (model_5051(grid_resolution=5), model_reflection(grid_resolution=5)):
            models += [(urn, seed) for seed in range(4)]
        diagnostics = []
        with caplog.at_level(logging.WARNING, logger="ambicap.comparatives"):
            for model, seed in models:
                sampler = LotterySampler(model.states, seed=seed)
                for _ in range(25):
                    shares_optimal_perception(model, *sampler.pair(), diagnostics=diagnostics)
        assert diagnostics == []
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_reflexive(self, urn):
        sampler = LotterySampler(urn.states, seed=2)
        P = sampler.lottery()
        assert shares_optimal_perception(urn, P, P)


class TestToleranceOrders:
    def test_both_orders_reflexive(self, urn):
        sampler = LotterySampler(urn.states, seed=0)
        assert more_tolerant_ea_randomization(urn, urn, sampler, 200).holds
        sampler = LotterySampler(urn.states, seed=0)
        assert more_tolerant_ambiguity(urn, urn, sampler, 200).holds

    def test_expected_utility_tolerates_more_ambiguity(self, urn, center_eu):
        sampler = LotterySampler(urn.states, seed=1)
        assert more_tolerant_ambiguity(center_eu, urn, sampler, 300).holds

    def test_costly_perception_not_more_tolerant_than_eu(self, urn, center_eu):
        probe = Lottery.dirac(acts_5051()["f2"])
        sampler = LotterySampler(urn.states, seed=1, probes=[probe])
        verdict = more_tolerant_ambiguity(urn, center_eu, sampler, 300)
        assert not verdict.holds
        assert verdict.counterexample is not None
        assert verdict.samples_used == 1

    def test_eu_randomization_tolerance_over_urn(self, urn, center_eu):
        sampler = LotterySampler(urn.states, seed=2)
        assert more_tolerant_ea_randomization(center_eu, urn, sampler, 150).holds

    def test_urn_fails_randomization_tolerance_against_eu(self, urn, center_eu):
        acts = acts_5051()
        pair = (Lottery.dirac(acts["f1"]), Lottery.dirac(acts["f4"]))
        sampler = LotterySampler(urn.states, seed=2, pair_probes=[pair])
        verdict = more_tolerant_ea_randomization(urn, center_eu, sampler, 150)
        assert not verdict.holds
        assert verdict.samples_used == 1

    def test_cheaper_costs_are_more_tolerant(self, urn, free_urn):
        sampler = LotterySampler(urn.states, seed=3)
        assert more_tolerant_ambiguity(free_urn, urn, sampler, 300).holds

    @pytest.mark.parametrize("n", (0, -3))
    @pytest.mark.parametrize(
        "order",
        (more_tolerant_ea_randomization, more_tolerant_ambiguity, higher_filtering_incentives),
    )
    def test_fewer_than_one_sample_rejected(self, urn, order, n):
        sampler = LotterySampler(urn.states, seed=0)
        with pytest.raises(ValueError, match="at least one sample"):
            order(urn, urn, sampler, n)

    @pytest.mark.parametrize(
        "order",
        (more_tolerant_ea_randomization, more_tolerant_ambiguity, higher_filtering_incentives),
    )
    def test_models_over_other_states_rejected(self, urn, order):
        other = StateSpace(["w", "x", "y", "z"])
        stranger = random_cap_model(other, np.random.default_rng(0))
        for model1, model2, states in ((urn, stranger, urn.states), (stranger, urn, other)):
            with pytest.raises(DimensionMismatchError):
                order(model1, model2, LotterySampler(states, seed=0), 5)


class TestFilteringIncentives:
    def test_free_information_filters_more(self, urn, free_urn):
        sampler = LotterySampler(urn.states, seed=4)
        verdict = higher_filtering_incentives(free_urn, urn, sampler, 300)
        assert verdict.holds

    def test_reflexive(self, urn):
        sampler = LotterySampler(urn.states, seed=5)
        assert higher_filtering_incentives(urn, urn, sampler, 200).holds

    def test_failing_verdict_reverifies_by_direct_evaluation(self, urn, center_eu):
        # EU keeps every risky ingredient it weakly prefers; the costly urn
        # sometimes swaps it for a constant
        sampler = LotterySampler(urn.states, seed=0)
        verdict = higher_filtering_incentives(urn, center_eu, sampler, 300)
        assert not verdict.holds
        cx = verdict.counterexample
        assert set(cx) == {"lam", "P", "Q", "t", "d1", "d2"}
        P, Q = (Lottery(urn.states, *zip(*cx[key])) for key in ("P", "Q"))
        with_P = mix_lotteries(cx["lam"], P, Q)
        with_t = mix_lotteries(cx["lam"], Lottery.constant(urn.states, cx["t"]), Q)
        d1 = evaluate_value(urn, with_P) - evaluate_value(urn, with_t)
        d2 = evaluate_value(center_eu, with_P) - evaluate_value(center_eu, with_t)
        assert (d1, d2) == (cx["d1"], cx["d2"])
        assert d2 >= 0.0 and d1 < -SHARES_TOL


# The per-sample loops the chunked orders replaced, kept as the reference
# they must reproduce: same verdicts, same witnesses, same sampler state.


# Reference loops: one sample at a time through the order's own draw, as a
# chunk of one, scored lottery by lottery with evaluate_value.


def _lottery(model, lotteries):
    return Lottery(model.states, *lottery_row(lotteries, 0))


def _reference_ambiguity(model1, model2, sampler, n):
    for i in range(n):
        P = _lottery(model1, ambicap.comparatives._draw_ambiguity(model1, sampler, 1)["P"])
        v1 = evaluate_value(model1, P)
        v2 = evaluate_value(model2, P)
        if v1 < v2 - SHARES_TOL:
            return ComparativeVerdict(
                False, {"P": serialize_lottery(P), "value1": v1, "value2": v2}, i + 1
            )
    return ComparativeVerdict(True, None, n)


def _reference_filtering(model1, model2, sampler, n):
    for i in range(n):
        c = ambicap.comparatives._draw_filtering(model1, sampler, 1)
        lam, t = float(c["lam"][0]), float(c["t"][0])
        P, Q = _lottery(model1, c["P"]), _lottery(model1, c["Q"])
        with_P = mix_lotteries(lam, P, Q)
        with_t = mix_lotteries(lam, Lottery.constant(model1.states, t), Q)
        d2 = evaluate_value(model2, with_P) - evaluate_value(model2, with_t)
        if d2 >= 0.0:
            d1 = evaluate_value(model1, with_P) - evaluate_value(model1, with_t)
            if d1 < -SHARES_TOL:
                cx = {"lam": lam, "P": serialize_lottery(P), "Q": serialize_lottery(Q), "t": t}
                return ComparativeVerdict(False, {**cx, "d1": d1, "d2": d2}, i + 1)
    return ComparativeVerdict(True, None, n)


def _reference_shares(model, P, Q, scored=None):
    """The pair-by-pair shares test: P and Q evaluated, then the mixtures
    at lam = 0.1, ..., 0.9 one at a time up to the first nonaffine one,
    each counted in ``scored``."""
    rP, rQ = evaluate(model, P), evaluate(model, Q)
    linear = True
    for lam in np.linspace(0.1, 0.9, 9):
        if scored is not None:
            scored.append(lam)
        mixed = evaluate_value(model, mix_lotteries(lam, P, Q))
        if abs(mixed - (lam * rP.value + (1.0 - lam) * rQ.value)) > ambicap.comparatives.SHARES_TOL:
            linear = False
            break
    return linear, ambicap.comparatives.perceptions_intersect(rP.optimal_perceptions, rQ.optimal_perceptions)


def _reference_ea(model1, model2, sampler, n, notes=None):
    """The pair-by-pair ea order; each cross-check disagreement's log
    message is appended to ``notes``."""

    def shares(model, P, Q):
        linear, intersects = _reference_shares(model, P, Q)
        if linear != intersects and notes is not None:
            note = {"P": serialize_lottery(P), "Q": serialize_lottery(Q), "linear": linear, "argmax_intersects": intersects}
            notes.append(f"shares_optimal_perception cross-check disagreement: {note}")
        return linear

    for i in range(n):
        P, Q = sampler.pair()
        if shares(model2, P, Q) and not shares(model1, P, Q):
            return ComparativeVerdict(False, {"P": serialize_lottery(P), "Q": serialize_lottery(Q)}, i + 1)
    return ComparativeVerdict(True, None, n)


class TestOrdersMatchPerSampleLoops:
    @staticmethod
    def _pairs():
        pairs = []
        for seed in range(12):
            rng = np.random.default_rng(300 + seed)
            states = StateSpace([f"s{i}" for i in range(int(rng.integers(2, 5)))])
            pairs.append((random_cap_model(states, rng), random_cap_model(states, rng)))
        urn = model_5051(grid_resolution=5)
        p = 50.0 / 101.0
        eu = eu_model(urn.states, Prior(urn.states, (p / 2, p / 2, (1 - p) / 2, (1 - p) / 2)))
        return pairs + [(urn, urn), (urn, eu), (eu, urn)]

    @pytest.mark.parametrize(
        "order, reference",
        (
            (more_tolerant_ambiguity, _reference_ambiguity),
            (higher_filtering_incentives, _reference_filtering),
            (more_tolerant_ea_randomization, _reference_ea),
        ),
    )
    def test_same_verdicts_and_next_draw(self, order, reference):
        n, chunk_ends = 60, {1, 3, 7, 15, 31, 60}  # chunks of 1, 2, 4, 8, 16, 29
        mid_chunk = 0
        for model1, model2 in self._pairs():
            for seed in range(2):
                chunked = LotterySampler(model1.states, seed=seed)
                looped = LotterySampler(model1.states, seed=seed)
                verdict = order(model1, model2, chunked, n)
                assert verdict == reference(model1, model2, looped, n)
                assert chunked.uniform() == looped.uniform()
                mid_chunk += not verdict.holds and verdict.samples_used not in chunk_ends
        assert mid_chunk >= 3

    @pytest.mark.parametrize(
        "name, patched",
        (("SHARES_TOL", 2.0), ("perceptions_intersect", lambda a, b: not perceptions_intersect(a, b))),
    )
    def test_ea_order_logs_the_reference_notes_in_order(self, monkeypatch, caplog, name, patched):
        # a loose tolerance makes linearity and argmax overlap disagree on
        # many pairs, before and after the witnesses; a negated overlap
        # test makes both models disagree, with different notes, on every
        # witness pair
        monkeypatch.setattr(ambicap.comparatives, name, patched)
        failing, noted = 0, 0
        for model1, model2 in self._pairs():
            for seed in range(2):
                notes = []
                reference = _reference_ea(model1, model2, LotterySampler(model1.states, seed=seed), 60, notes)
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="ambicap.comparatives"):
                    verdict = more_tolerant_ea_randomization(model1, model2, LotterySampler(model1.states, seed=seed), 60)
                assert verdict == reference
                assert [r.getMessage() for r in caplog.records] == notes
                failing += not verdict.holds
                noted += len(notes) > 0
        assert failing >= 3 and noted >= 3

    def test_shares_scores_the_mixtures_of_the_pair_loop(self, urn, monkeypatch):
        # c7's pair stream; a row stops at its first nonaffine mixture, so
        # scoring all 9 weights at once would score more rows
        def counted(model, probs, payoffs):
            rows.append(len(probs))
            return evaluate_values(model, probs, payoffs)

        rows, scored = [], []
        evaluate_values = ambicap.comparatives.evaluate_values
        monkeypatch.setattr(ambicap.comparatives, "evaluate_values", counted)
        sampler = LotterySampler(urn.states, seed=3)
        linear = 0
        for _ in range(300):
            P, Q = sampler.pair()
            detail = shares_optimal_perception_detail(urn, P, Q)
            assert detail == _reference_shares(urn, P, Q, scored)
            linear += detail[0]
        assert sum(rows) == len(scored)
        assert 0 < linear < 300


class TestDominatesBenefit:
    def test_family_dominates_its_subset(self, states4, rng):
        sets = random_box_5051_family(rng, n_members=6)
        sampler = LotterySampler(states4, seed=6)
        diagnostics = []
        assert dominates_benefit(sets, sets[:2], sampler, 300, diagnostics)
        assert not diagnostics

    def test_reflexive(self, states4, rng):
        sets = random_box_5051_family(rng, n_members=4)
        sampler = LotterySampler(states4, seed=7)
        assert dominates_benefit(sets, sets, sampler, 200)

    def test_coarse_family_does_not_dominate_fine(self, urn):
        family = urn.family
        fine = [family.member_at((0.0, 0.0))]
        coarse = [family.member_at((1.0, 1.0))]
        sampler = LotterySampler(urn.states, seed=8)
        assert dominates_benefit(fine, coarse, sampler, 100)
        assert not dominates_benefit(coarse, fine, sampler, 100)

    def test_contradictions_reach_diagnostics_in_sample_order(self, states4, rng, monkeypatch):
        # a value route that contradicts the structure on every sample but
        # the first, by a gap of minus the sample's index
        def values(model, probs, payoffs):
            calls.append(model)
            return np.zeros(len(probs)) if len(calls) == 1 else np.arange(len(probs), dtype=float)

        calls = []
        monkeypatch.setattr(ambicap.comparatives, "evaluate_values", values)
        sets = random_box_5051_family(rng, n_members=3)
        diagnostics = []
        assert dominates_benefit(sets, sets, LotterySampler(states4, seed=2), 4, diagnostics)
        assert len(calls) == 2
        redraw = LotterySampler(states4, seed=2)
        lotteries = [serialize_lottery(redraw.lottery()) for _ in range(4)]
        assert diagnostics == [{"P": lotteries[i], "gap": -float(i)} for i in (1, 2, 3)]

    def test_sampled_values_respect_structural_dominance(self, urn, states4, rng):
        # the value route must agree with the structural route on every
        # sampled lottery; diagnostics would record any contradiction
        sets = random_box_5051_family(rng, n_members=8)
        sampler = LotterySampler(states4, seed=9)
        diagnostics = []
        assert dominates_benefit(sets, sets[3:], sampler, 500, diagnostics)
        assert diagnostics == []
