"""Axiom checks: necessity on satisfying models, separations on violators."""

import numpy as np
import pytest

from ambicap import (
    AXIOM_IDS,
    AxiomReport,
    BeliefSet,
    CapModel,
    FiniteFamily,
    Lottery,
    StateSpace,
    UtilityAct,
    check_axiom,
    evaluate_value,
    machina_5051_dual_self_property,
    mix_acts,
    necessary_axioms,
    recheck_witness,
)
from ambicap import axioms
from ambicap.sampling import LotterySampler, random_cap_model
from ambicap.stock import (
    P_5051,
    STATES_4,
    acts_5051,
    auxiliary_acts,
    dual_self_model,
    model_5051,
    quarter_slice_sets,
    random_box_5051_family,
    stock_separations,
)


class TestNecessaryAxioms:
    def test_mapping_by_variant(self, states4):
        rng = np.random.default_rng(1)
        base = {"A1-nondegeneracy", "A2-FSD", "A3-aepr", "A4-imtc", "A6-ica"}
        expect_extra = {
            "cap": {"A5-eaar"},
            "dual_self": {"A5-eaar", "A-sica"},
            "choquet": {"A5-eaar", "A-imtcm"},
            "cautious": {"A-eapr"},
            "double_maxmin": {"A-eapr", "A-sica", "A-psr"},
        }
        for variant, extra in expect_extra.items():
            model = random_cap_model(states4, rng, variant=variant)
            got = set(necessary_axioms(model))
            assert base <= got
            assert extra <= got
        cap_axioms = set(
            necessary_axioms(random_cap_model(states4, rng, variant="cap"))
        )
        assert "A-eapr" not in cap_axioms
        assert "A-imt" not in cap_axioms

    def test_singleton_family_gets_timing_equalities(self, states4):
        rng = np.random.default_rng(2)
        model = random_cap_model(states4, rng, singleton=True)
        got = set(necessary_axioms(model))
        assert {"A-imt", "A-imtcm"} <= got

    def test_all_ids_known(self, states4):
        rng = np.random.default_rng(3)
        for variant in ("cap", "cautious", "dual_self", "double_maxmin", "choquet"):
            model = random_cap_model(states4, rng, variant=variant)
            assert set(necessary_axioms(model)) <= set(AXIOM_IDS)

    @pytest.mark.parametrize(
        "variant", ("cap", "cautious", "dual_self", "double_maxmin", "choquet")
    )
    def test_necessary_axioms_hold_on_random_models(self, variant):
        rng = np.random.default_rng(hash(variant) % 2**31)
        for i in range(3):
            states = StateSpace([f"s{j}" for j in range(int(rng.integers(2, 5)))])
            model = random_cap_model(states, rng, variant=variant)
            for axiom_id in necessary_axioms(model):
                sampler = LotterySampler(states, seed=i)
                report = check_axiom(model, axiom_id, sampler, 250)
                assert report.holds, (
                    f"{variant} model {i} violated {axiom_id}: "
                    f"{report.counterexample}"
                )

    def test_unknown_axiom_id_rejected(self, urn_model):
        sampler = LotterySampler(urn_model.states, seed=0)
        with pytest.raises(ValueError):
            check_axiom(urn_model, "A9-unknown", sampler, 10)

    @pytest.mark.parametrize("n", (0, -5))
    @pytest.mark.parametrize("axiom_id", ("A1-nondegeneracy", "A2-FSD"))
    def test_fewer_than_one_trial_rejected(self, slices_model, axiom_id, n):
        sampler = LotterySampler(slices_model.states, seed=0)
        with pytest.raises(ValueError, match="at least one trial"):
            check_axiom(slices_model, axiom_id, sampler, n)


def _one_at_a_time(model, axiom_id, sampler, n):
    """(trials, violation, chunk) of the first violating trial, each trial
    drawn by the axiom's own draw as a chunk of one and scored alone, or
    (n, None, None)."""
    draw, violations = axioms._AXIOM_TABLE[axiom_id]
    for i in range(n):
        chunk = draw(model, sampler, 1)
        violation = float(violations(model, chunk)[0])
        if violation > axioms.TRIAL_TOL:
            return i + 1, violation, chunk
    return n, None, None


class TestSamplerState:
    """After a check the sampler is where trial-by-trial drawing leaves it.
    Each pinned value was recorded from ``_one_at_a_time`` on the same
    seeds, and each test also runs that loop beside the check."""

    STATES_3 = StateSpace(["s0", "s1", "s2"])

    def test_after_a_check_that_holds(self):
        model = random_cap_model(self.STATES_3, np.random.default_rng(11), "cap")
        sampler, looped = (LotterySampler(self.STATES_3, seed=7) for _ in range(2))
        report = check_axiom(model, "A5-eaar", sampler, 150)
        assert (report.holds, report.trials) == (True, 150)
        assert _one_at_a_time(model, "A5-eaar", looped, 150) == (150, None, None)
        assert sampler.uniform() == looped.uniform() == 0.3571969665449164

    def test_after_a_witness_inside_a_chunk(self):
        # trial 38 is the seventh of the sixth chunk (trials 32 to 63)
        model = random_cap_model(self.STATES_3, np.random.default_rng(7), "cap")
        sampler, looped = (LotterySampler(self.STATES_3, seed=7) for _ in range(2))
        report = check_axiom(model, "A-imt", sampler, 150)
        trials, violation, _ = _one_at_a_time(model, "A-imt", looped, 150)
        assert (report.holds, report.trials) == (False, trials) == (False, 38)
        assert report.counterexample["violation"] == violation
        assert violation == pytest.approx(0.19058025080894936, rel=1e-12)
        assert sampler.uniform() == looped.uniform() == 0.5760583823718732

    def test_probes_must_share_the_state_space(self):
        probe = Lottery.constant(STATES_4, 1.0)
        with pytest.raises(ValueError, match="state spaces differ"):
            LotterySampler(StateSpace(["a", "b", "c", "d"]), probes=[probe])
        with pytest.raises(ValueError, match="state spaces differ"):
            LotterySampler(StateSpace(["a", "b", "c", "d"]), pair_probes=[(probe, probe)])

    def test_after_a_witness_in_a_probe(self):
        # probe 3 violates; the fourth chunk (trials 4 to 7) also draws
        # probes 4 and 5 and one random pair, which must all be given back
        def constant(t):
            return Lottery.constant(STATES_4, t)

        def bet(i):
            return Lottery.dirac(UtilityAct(STATES_4, np.eye(4)[i] * 100.0))

        probes = [(constant(2 * k + 1.0), constant(2 * k + 2.0)) for k in range(3)]
        probes += [(bet(1), bet(2))]
        probes += [(constant(2 * k + 1.0), constant(2 * k + 2.0)) for k in range(3, 5)]
        sampler, looped = (LotterySampler(STATES_4, seed=4, pair_probes=probes) for _ in range(2))
        report = check_axiom(dual_self_model(), "A-eapr", sampler, 150)
        trials, _, chunk = _one_at_a_time(dual_self_model(), "A-eapr", looped, 150)
        assert (report.holds, report.trials) == (False, trials) == (False, 4)
        assert report.counterexample["P"] == [[1.0, [0.0, 100.0, 0.0, 0.0]]]
        assert report.counterexample["lam"] == chunk["lam"][0] == 0.7857538492437716
        assert sampler.uniform() == looped.uniform() == 0.9700710402217617
        assert sampler.pair()[0].payoff_matrix.tolist() == [[7.0] * 4]


class TestSeparations:
    def test_stock_witnesses_violate(self):
        seen = set()
        for model, axiom_id, witness in stock_separations():
            violated, magnitude = recheck_witness(model, axiom_id, witness, tol=1e-8)
            assert violated, f"{axiom_id} witness did not violate"
            assert magnitude > 1e-8
            seen.add(axiom_id)
        assert {"A-sica", "A-imt", "A-imtcm", "A-eapr"} <= seen

    def test_sampled_search_finds_stock_violations(self):
        for model, axiom_id, _ in stock_separations():
            sampler = LotterySampler(model.states, seed=3)
            report = check_axiom(model, axiom_id, sampler, 400)
            assert not report.holds, f"search missed {axiom_id} violation"
            assert report.counterexample is not None
            # the reported witness must replay as a genuine violation
            violated, _ = recheck_witness(
                model, axiom_id, report.counterexample, tol=1e-8
            )
            assert violated

    def test_recheck_rejects_malformed_witnesses(self):
        model, axiom_id, witness = stock_separations()[-1]
        assert axiom_id == "A-eapr"
        for key, bad in (
            ("lam", 1.5),
            ("P", [[0.5, [0.0, 100.0, 0.0, 0.0]]]),
            ("Q", [[1.0, [0.0, 0.0, 100.0]]]),
        ):
            with pytest.raises(ValueError):
                recheck_witness(model, axiom_id, {**witness, key: bad})

    def test_witness_roundtrip_from_search(self, slices_model):
        sampler = LotterySampler(slices_model.states, seed=5)
        report = check_axiom(slices_model, "A-eapr", sampler, 400)
        assert not report.holds
        violated, magnitude = recheck_witness(
            slices_model, "A-eapr", report.counterexample, tol=1e-8
        )
        assert violated and magnitude > 1e-8

    def test_report_shape(self, urn_model):
        sampler = LotterySampler(urn_model.states, seed=0)
        report = check_axiom(urn_model, "A5-eaar", sampler, 50)
        assert isinstance(report, AxiomReport)
        assert report.axiom_id == "A5-eaar"
        assert report.trials == 50
        assert report.holds and report.counterexample is None


class TestMachinaDualSelfProperty:
    def test_holds_on_random_box_families(self, states4):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            sets = random_box_5051_family(rng, n_members=6)
            sampler = LotterySampler(states4, seed=seed)
            report = machina_5051_dual_self_property(sets, sampler)
            assert report.holds, report.counterexample

    def test_holds_on_embedded_quarter_slices(self, states4):
        M1, M2 = quarter_slice_sets()
        scale_rb = P_5051 / 0.5
        scale_gp = (1.0 - P_5051) / 0.5
        embedded = []
        for M in (M1, M2):
            matrix = M.matrix.copy()
            matrix[:, :2] *= scale_rb
            matrix[:, 2:] *= scale_gp
            embedded.append(BeliefSet(states4, matrix))
        sampler = LotterySampler(states4, seed=0)
        report = machina_5051_dual_self_property(embedded, sampler)
        assert report.holds

    @pytest.mark.parametrize("tol", [axioms.TRIAL_TOL, 0.0, -1.0])
    def test_matches_the_one_at_a_time_loop(self, monkeypatch, tol):
        """The batched check reports the first failing trial of the loop it
        replaced, with its trial count, and draws its alphas alike; lower
        tolerances make rounding gaps fail at various trials."""
        monkeypatch.setattr(axioms, "TRIAL_TOL", tol)

        def loop(Msets, sampler):
            model = CapModel(STATES_4, FiniteFamily([(M, 0.0) for M in Msets]), "dual_self")
            aux = auxiliary_acts()
            g, h = aux["g"], aux["h"]
            ug, uh = (evaluate_value(model, Lottery.dirac(f)) for f in (g, h))
            alphas = [0.0, 0.25, 0.5, 0.75, 1.0] + [sampler.uniform() for _ in range(3)]
            for trials, alpha in enumerate(alphas, 1):
                mixed = evaluate_value(model, Lottery.dirac(mix_acts(alpha, g, h)))
                gap = abs(mixed - (alpha * ug + (1.0 - alpha) * uh))
                if gap > tol:
                    return False, {"alpha": alpha, "gap": gap, "kind": "affinity"}, trials
            u = {k: evaluate_value(model, Lottery.dirac(f)) for k, f in acts_5051().items()}
            d12, d34 = u["f1"] - u["f2"], u["f3"] - u["f4"]
            if d12 > tol and d34 < tol:
                return False, {"d12": d12, "d34": d34, "kind": "implication"}, len(alphas) + 1
            return True, None, len(alphas) + 1

        failed_at = set()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            sets = random_box_5051_family(rng, n_members=int(rng.integers(1, 9)))
            sampler, twin = LotterySampler(STATES_4, seed=seed), LotterySampler(STATES_4, seed=seed)
            report = machina_5051_dual_self_property(sets, sampler)
            want = loop(sets, twin)
            # repr tells a numpy scalar from a float, and -0.0 from 0.0
            assert repr((report.holds, report.counterexample, report.trials)) == repr(want)
            assert sampler.uniform() == twin.uniform()
            failed_at.add(None if report.holds else report.trials)
        if tol == 0.0:
            assert len(failed_at) > 2, failed_at

    def test_rejects_families_off_the_5051_urn(self, states4):
        M1, _ = quarter_slice_sets()  # red+blue mass 1/2, not 50/101
        sampler = LotterySampler(states4, seed=0)
        with pytest.raises(ValueError):
            machina_5051_dual_self_property([M1], sampler)

    def test_vacuous_single_full_box(self, states4):
        q = 1.0 - P_5051
        full_box = BeliefSet(
            states4,
            [
                (P_5051, 0.0, q, 0.0),
                (P_5051, 0.0, 0.0, q),
                (0.0, P_5051, q, 0.0),
                (0.0, P_5051, 0.0, q),
            ],
        )
        sampler = LotterySampler(states4, seed=1)
        report = machina_5051_dual_self_property([full_box], sampler)
        assert report.holds
