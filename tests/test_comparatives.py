"""Comparative statics between models and families."""

import logging

import numpy as np
import pytest

from ambicap import (
    CapModel,
    ComparativeVerdict,
    Lottery,
    Prior,
    StateSpace,
    dominates_benefit,
    evaluate_value,
    higher_filtering_incentives,
    more_tolerant_ambiguity,
    more_tolerant_ea_randomization,
    shares_optimal_perception,
    shares_optimal_perception_detail,
)
from ambicap.sampling import LotterySampler, random_cap_model
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


class TestFilteringIncentives:
    def test_free_information_filters_more(self, urn, free_urn):
        sampler = LotterySampler(urn.states, seed=4)
        verdict = higher_filtering_incentives(free_urn, urn, sampler, 300)
        assert verdict.holds

    def test_reflexive(self, urn):
        sampler = LotterySampler(urn.states, seed=5)
        assert higher_filtering_incentives(urn, urn, sampler, 200).holds


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

    def test_sampled_values_respect_structural_dominance(self, urn, states4, rng):
        # the value route must agree with the structural route on every
        # sampled lottery; diagnostics would record any contradiction
        sets = random_box_5051_family(rng, n_members=8)
        sampler = LotterySampler(states4, seed=9)
        diagnostics = []
        assert dominates_benefit(sets, sets[3:], sampler, 500, diagnostics)
        assert diagnostics == []
